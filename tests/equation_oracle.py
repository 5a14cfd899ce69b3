"""The element-by-element scans that `qcm_check`, `verify_rq_homotopy`,
`verify_xc3_homotopy` and `xc3_morphism_check` made before they read
coordinates, kept as oracles.

Every map is evaluated as an element (`GroupHom.__call__`), each equation's
two sides are compared by `Group.eq`, and the homomorphism checks go
through `GroupHom.check_hom`.  No coordinate is read, so the oracle
cannot share a mistake in them.  Both return reports with the check
ids, messages, first-failure witnesses and bases of the checks under test.
"""

from xq.groups import GroupHom
from xq.quadratic import Alpha2
from xq.report import Report


def scan_qcm_equations(m):
    """The morphism conditions, in report order, as (check id, map, group,
    equations) with element sides."""
    src, tgt = m.source, m.target
    for name, h in (("f2", m.f2), ("f3", m.f3), ("f4", m.f4)):
        yield f"{name}_is_homomorphism", h, h.target, ()
    yield "square_d3", None, tgt.q2, (
        (m.f2(src.d3(x)), tgt.d3(m.f3(x)), f"f2 d3 != d3' f3 at generator {src.q3.names[i]}")
        for i, x in enumerate(src.q3.generators()))
    yield "square_d4", None, tgt.q3, (
        (m.f3(src.d4(x)), tgt.d4(m.f4(x)), f"f3 d4 != d4' f4 at generator {src.q4.names[i]}")
        for i, x in enumerate(src.q4.generators()))
    n = src.q2.ngens
    yield "square_omega", None, tgt.q3, (
        (m.f3(src.rqm.omega[i][j]),
         tgt.rqm.omega_outer(tgt.q2.ab(m.f2.images[i]), tgt.q2.ab(m.f2.images[j])),
         f"f3 omega != omega' (f2^ab (x) f2^ab) at basis ({i},{j})")
        for i in range(n) for j in range(n))
    if (src.under is None or tgt.under is None
            or src.under.base.q2 != tgt.under.base.q2):
        return
    for deg, fh, grp, qs, qt in ((2, m.f2, tgt.q2, src.under.q2, tgt.under.q2),
                                 (3, m.f3, tgt.q3, src.under.q3, tgt.under.q3),
                                 (4, m.f4, tgt.q4, src.under.q4, tgt.under.q4)):
        yield f"under_degree{deg}", None, grp, (
            (fh(qs(z)), qt(z), f"f does not commute with the cofibration in degree {deg}")
            for z in qs.source.generators())


def scan_qcm_check(m):
    rep = Report("quadratic complex morphism", basis="proved")
    for check_id, h, grp, equations in scan_qcm_equations(m):
        if h is not None:
            rep.add_hom(check_id, h)
        else:
            rep.first_failure(check_id, (msg for lhs, rhs, msg in equations
                                         if not grp.eq(lhs, rhs)))
    return rep


def scan_verify_rq_homotopy(f, g, h):
    rep = Report("quadratic homotopy certificate", basis="proved")
    src, tgt = f.source, f.target
    q2, q3, q4 = tgt.q2, tgt.q3, tgt.q4
    alpha3 = GroupHom(src.q3, q4, h.alpha3)
    alpha2, values = Alpha2(f, g), GroupHom(src.q2, q3, h.alpha2)
    rep.add_hom("alpha3_is_homomorphism", alpha3)
    rep.first_failure("homotopy_degree2",
                      (f"-f2 + g2 != d3' alpha2 at generator {src.q2.names[i]}"
                       for i, x in enumerate(src.q2.generators())
                       if not q2.eq(q2.op(q2.inv(f.f2(x)), g.f2(x)), tgt.d3(h.alpha2[i]))))
    rep.first_failure("homotopy_degree3",
                      (f"-f3 + g3 != d4' alpha3 + alpha2 d3 at generator {src.q3.names[i]}"
                       for i, x in enumerate(src.q3.generators())
                       if not q3.eq(q3.op(q3.inv(f.f3(x)), g.f3(x)),
                                    q3.op(tgt.d4(alpha3(x)), alpha2(values, src.d3(x))))))
    rep.first_failure("homotopy_degree4",
                      (f"-f4 + g4 != alpha3 d4 at generator {src.q4.names[i]}"
                       for i, x in enumerate(src.q4.generators())
                       if not q4.eq(q4.op(q4.inv(f.f4(x)), g.f4(x)), alpha3(src.d4(x)))))
    if src.under is not None:
        base, under = src.under.base, src.under
        rep.first_failure("alpha2_vanishes_on_under",
                          (f"alpha2 does not vanish on {base.q2.format_element(z)}"
                           for z in base.q2.generators()
                           if not q3.is_identity(alpha2(values, under.q2(z)))))
        rep.first_failure("alpha3_vanishes_on_under",
                          (f"alpha3 does not vanish on {base.q3.format_element(z)}"
                           for z in base.q3.generators()
                           if not q4.is_identity(alpha3(under.q3(z)))))
    return rep


def scan_verify_xc3_homotopy(f, g, h):
    rep = Report("crossed complex homotopy certificate")
    src, tgt = f.source, f.target
    rep.add("f1_equals_g1", all(tgt.m1.eq(a, b) for a, b in
                                zip(f.f1.images, g.f1.images)))
    alpha = GroupHom(src.m2, tgt.m3, h.alpha)
    rep.add_hom("alpha_additive", alpha)
    rep.first_failure("degree2_equation",
                      (f"-f2 + g2 != d3' alpha at generator {src.m2.names[i]}"
                       for i, x in enumerate(src.m2.generators())
                       if not tgt.m2.eq(tgt.m2.op(tgt.m2.inv(f.f2(x)), g.f2(x)),
                                        tgt.d3(alpha(x)))))
    rep.first_failure("degree3_equation",
                      (f"-f3 + g3 != alpha d3 at generator {src.m3.names[i]}"
                       for i, t in enumerate(src.m3.generators())
                       if not tgt.m3.eq(tgt.m3.op(tgt.m3.inv(f.f3(t)), g.f3(t)),
                                        alpha(src.d3(t)))))
    rep.first_failure("alpha_vanishes_on_under",
                      (f"alpha does not vanish on {src.m2.format_element(z)}"
                       for z in src.under2 if not tgt.m3.is_identity(alpha(z))))
    rep.first_failure("alpha_equivariant",
                      ("alpha not f1-equivariant"
                       for x in src.m2.generators() for a in src.m1.generators()
                       if not tgt.m3.eq(alpha(src.action2.apply(x, a)),
                                        tgt.action3.apply(alpha(x), f.f1(a)))))
    return rep


def scan_xc3_morphism_check(m):
    rep = Report("crossed complex morphism")
    for name, h in (("f1", m.f1), ("f2", m.f2), ("f3", m.f3)):
        rep.add_hom(f"{name}_is_homomorphism", h)
    src, tgt = m.source, m.target
    rep.first_failure("square_d2", (f"f1 d2 != d2' f2 at {src.m2.format_element(x)}"
                                    for x in src.m2.generators()
                                    if not tgt.m1.eq(m.f1(src.d2(x)), tgt.d2(m.f2(x)))))
    rep.first_failure("square_d3", (f"f2 d3 != d3' f3 at {src.m3.format_element(t)}"
                                    for t in src.m3.generators()
                                    if not tgt.m2.eq(m.f2(src.d3(t)), tgt.d3(m.f3(t)))))
    rep.first_failure("f2_equivariant",
                      ("f2 not equivariant"
                       for x in src.m2.generators() for a in src.m1.generators()
                       if not tgt.m2.eq(m.f2(src.action2.apply(x, a)),
                                        tgt.action2.apply(m.f2(x), m.f1(a)))))
    rep.first_failure("f3_equivariant",
                      ("f3 not equivariant"
                       for t in src.m3.generators() for a in src.m1.generators()
                       if not tgt.m3.eq(m.f3(src.action3.apply(t, a)),
                                        tgt.action3.apply(m.f3(t), m.f1(a)))))
    for deg, fk, s, zs, t, ws in ((2, m.f2, src.m2, src.under2, tgt.m2, tgt.under2),
                                  (3, m.f3, src.m3, src.under3, tgt.m3, tgt.under3)):
        if zs and len(zs) == len(ws):
            rep.first_failure(f"under_degree{deg}",
                              (f"f{deg} moves under generator {s.format_element(z)}"
                               for z, w in zip(zs, ws) if not t.eq(fk(z), w)))
    return rep
