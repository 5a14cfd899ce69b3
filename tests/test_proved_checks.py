"""Checks decided exactly carry basis "proved" and draw no samples, and
only the checks of a qm file sample; the reduced quadratic module axioms 2
to 4 proved on generator pairs agree with the sampled scans they replaced,
and deciding axioms 3 and 4 once per pair of classes agrees with the
pair-by-pair scan (`axiom_oracle.py`)."""

import functools
import json
import os
import random

import pytest

import xq.quadratic
from xq import structfile as sf
from xq.cli import run
from xq.groups import FgAbelianGroup, FreeAbelianGroup, FreeGroup, FreeNil2Group, GroupHom
from xq.crossed import xc3_morphism_check
from xq.quadratic import (QuadraticModule, ReducedQuadraticModule, qcm_check, qm_check,
                          rqc4_check, rqm_check)
from xq.report import Check, Report

from axiom_oracle import per_pair_axioms, sampled_axioms
from hom_oracle import sampled_check_hom
from test_check_firing import doubling, doubling_action_xc3, rank1_qm, scale, swap_and_shear
from test_groups import ALL_GROUPS
from test_homotopic_files import _xc3_files
from test_structure_kinds import _omega_w, _qm, _rqm
from test_crossed import scale_morphism, small_xc3

AXIOMS = ("axiom2_d3_omega_is_commutator", "axiom3_boundary_tensors_vanish",
          "axiom4_q3_commutators")


def distinct(modules):
    """The modules with distinct groups, omega and d3, first occurrence kept."""
    seen = {}
    for name, q in modules:
        seen.setdefault(repr((q.q2.descriptor(), q.q3.descriptor(), q.omega,
                              q.d3.images)), (name, q))
    return list(seen.values())


def shipped_modules(structures_dir):
    """Every reduced quadratic module in the shipped files, by file."""
    out = []
    for name in sorted(os.listdir(structures_dir)):
        with open(os.path.join(structures_dir, name), encoding="utf-8") as fh:
            v = sf.load_structure(fh.read()).value
        if name.startswith("retraction_pr"):
            complexes = [v.source, v.target]
        elif name == "retraction_pair.json":
            complexes = [cx for _, cx in v]
        else:
            complexes = [v]
        complexes += [cx.under.base for cx in complexes if cx.under is not None]
        out.extend((name, cx.rqm) for cx in complexes)
    return out


FIRING = [doubling(), doubling(omega_value=True), doubling(d4_hits_t=True),
          doubling(under=True)]


def test_proved_axioms_agree_with_a_1000_sample_scan(structures_dir):
    shipped = shipped_modules(structures_dir)
    assert len(shipped) == 20
    # the six files hold two modules, D and Q; the corrupted ones hold two more
    modules = distinct(shipped + [("firing", c.rqm) for c in FIRING])
    assert [name for name, _ in modules] == ["cylinder_Q.json", "cylinder_Q.json",
                                             "firing", "firing"]
    for name, q in modules:
        rep = rqm_check(q)
        proved = {c.check_id: (c.passed, c.witness) for c in rep.checks
                  if c.check_id in AXIOMS and c.basis == "proved"}
        assert sorted(proved) == sorted(AXIOMS), name
        oracle = sampled_axioms(q, samples=1000, seed=0)
        assert proved == {k: (w is None, w) for k, w in oracle.items()}, name
    # the corrupted structure fails all three, with the oracle's witnesses
    assert all(sampled_axioms(FIRING[1].rqm).values())


def counting_draws(monkeypatch, *groups):
    draws = []
    for g in groups:
        draw = g.random_element
        monkeypatch.setattr(g, "random_element",
                            lambda rng, *a, draw=draw: draws.append(1) or draw(rng, *a))
    return draws


def test_shipped_complex_checks_are_proved_without_samples(cylinder_q):
    rep = rqc4_check(cylinder_q)
    assert rep.ok and rep.meta == {}
    assert {c.basis for c in rep.checks} == {"proved"}
    notes = {c.check_id: c.note for c in rep.checks}
    assert notes["axiom2_d3_omega_is_commutator"] == "all generator pairs; bilinear"


def test_axioms_are_proved_on_generator_pairs_in_a_nonabelian_q3():
    # Q3 not abelian as presented, omega = 0 central: axioms 2 to 4 are
    # proved, and axiom 4 fails at (g0, g1), whose commutator is not 0
    q2, q3 = FreeNil2Group(1), FreeNil2Group(2)
    rqm = ReducedQuadraticModule(q2, q3, ((q3.identity(),),), GroupHom.zero(q3, q2))
    rep = rqm_check(rqm)
    basis = {c.check_id: (c.basis, c.note) for c in rep.checks if c.check_id in AXIOMS}
    assert basis == {k: ("proved", "all generator pairs; bilinear") for k in AXIOMS}
    assert [c.check_id for c in rep.checks if not c.passed] == ["axiom4_q3_commutators"]
    assert ("omega_central", True, "proved") in [(c.check_id, c.passed, c.basis)
                                                 for c in rep.checks]
    # Q2 a free group: it is not nil(2), so axiom 2 has no basis; axioms 3
    # and 4 are proved
    q2, q3 = FreeGroup(2), FgAbelianGroup(0)
    rqm = ReducedQuadraticModule(q2, q3, ((q3.identity(),) * 2,) * 2, GroupHom.zero(q3, q2))
    rep = rqm_check(rqm)
    assert [c.basis for c in rep.checks if c.check_id in AXIOMS] == [None, "proved", "proved"]


def nonhom_d3():
    """d3: Z/2<t> -> Z<x>, t |-> x does not kill 2t."""
    q2, q3 = FreeAbelianGroup(1), FgAbelianGroup(1, [[2]])
    return ReducedQuadraticModule(q2, q3, ((q3.identity(),),), GroupHom(q3, q2, [q2.gen(0)]))


def omega_not_on_c():
    """omega(x (x) x) = t on Z/2<x> does not kill 2x (x) x."""
    q2, q3 = FgAbelianGroup(1, [[2]]), FreeAbelianGroup(1)
    return ReducedQuadraticModule(q2, q3, ((q3.gen(0),),), GroupHom.zero(q3, q2))


@pytest.mark.parametrize("broken", ["d3_is_homomorphism", "omega_well_defined_on_C"])
def test_axioms_have_no_basis_when_a_premise_fails(broken):
    # both leave Q3 abelian; the report fails, and the axioms are scanned on
    # generator pairs with no basis
    rqm = nonhom_d3() if broken == "d3_is_homomorphism" else omega_not_on_c()
    rep = rqm_check(rqm)
    assert [c.check_id for c in rep.checks if not c.passed] == [broken]
    basis = {c.check_id: (c.basis, c.note) for c in rep.checks if c.check_id in AXIOMS}
    assert basis == {k: (None, "all generator pairs") for k in AXIOMS}


def test_check_hom_basis_and_sample_count(monkeypatch):
    nil2, free, ab = FreeNil2Group(2), FreeGroup(2), FreeAbelianGroup(2)
    h = GroupHom(nil2, free, [free.gen(0), free.gen(0)])
    for hom in (GroupHom(ab, nil2, nil2.generators()),
                GroupHom(nil2, ab, ab.generators()),
                GroupHom(free, nil2, nil2.generators()), h):
        assert Report("r").add_hom("hom", hom).basis == "proved"
    draws = counting_draws(monkeypatch, nil2)
    assert h.check_hom() == (True, None)
    assert draws == []


def test_basis_is_in_the_json_only_when_set():
    assert "basis" not in Check("c", True).to_json()
    assert Check("c", True, basis="proved").to_json()["basis"] == "proved"


@pytest.mark.parametrize("samples", [0, 1000])
def test_every_shipped_check_is_proved(structures_dir, tmp_path, samples):
    for name in sorted(os.listdir(structures_dir)):
        out = tmp_path / f"{name}.report"
        assert run(["check", os.path.join(structures_dir, name), "--samples",
                    str(samples), "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert {c["basis"] for c in checks} == {"proved"}, name


def corpus(structures_dir, tmp_path):
    """The path of a file of every kind: the shipped files, a homotopy
    witness written from them, and the test corpus's group, pre-crossed,
    crossed, xc3, rqm and qm inputs, valid and corrupted."""
    paths = [os.path.join(structures_dir, name) for name in sorted(os.listdir(structures_dir))]
    pair, pr1, twisted = (os.path.join(structures_dir, f"retraction_{name}.json")
                          for name in ("pair", "pr1", "pr1_twisted"))
    witness = tmp_path / "witness.json"
    assert run(["homotopic", pair, "--f", pr1, "--g", twisted, "--witness", str(witness)]) == 0
    xc3_pair, xc3_maps = _xc3_files(tmp_path)
    nil2 = {"kind": "free_nil2", "rank": 2}
    bodies = [("group", {"group": g.to_json()}) for g in ALL_GROUPS] + [
        ("precrossed", swap_and_shear("free_abelian")),
        ("precrossed", swap_and_shear("free_nil2")),
        ("crossed", {"m1": nil2, "m2": nil2, "d": {"images": [[[0, 1]], [[1, 1]]]},
                     "action": {"kind": "conjugation"}}),
        ("crossed", {"m1": nil2, "m2": nil2, "d": {"images": [[], []]},
                     "action": {"kind": "trivial"}}),
        ("xc3", doubling_action_xc3()),
        ("rqm", _rqm()), ("rqm", _omega_w(_rqm())), ("qm", _qm()), ("qm", _omega_w(_qm()))]
    for i, (kind, body) in enumerate(bodies):
        path = tmp_path / f"{i}-{kind}.json"
        path.write_text(json.dumps({"version": "1", "kind": kind, "body": body}))
        paths.append(str(path))
    return paths + [str(witness), xc3_pair, *xc3_maps.values()]


@pytest.mark.parametrize("samples", [0, 1000])
def test_only_qm_files_sample(structures_dir, tmp_path, capsys, monkeypatch, samples):
    monkeypatch.delenv("XQ_SEED", raising=False)
    kinds = set()
    for path in corpus(structures_dir, tmp_path):
        out = tmp_path / "report.json"
        assert run(["check", path, "--samples", str(samples), "--out", str(out)]) in (0, 1)
        text, report = capsys.readouterr().out, json.loads(out.read_text())
        with open(path, encoding="utf-8") as fh:
            kind = json.load(fh)["kind"]
        kinds.add(kind)
        sampled = [c["id"] for c in report["checks"] if c.get("basis") == "sampled"]
        if kind == "qm":
            assert report["meta"] == {"samples": samples, "seed": 0}, path
            assert f"  samples: {samples}\n  seed: 0\n" in text
            assert sampled == ["axiom1_nil2", "axiom2_d3_omega_is_w",
                               "axiom3_action_formula", "axiom4_q3_commutators"]
        else:
            assert "meta" not in report and sampled == [], path
            assert "samples:" not in text and "seed:" not in text, path
    assert kinds == set(sf.STRUCTURE_KINDS)


def test_nil2_into_free_group_verdict_matches_the_sampled_scan():
    # images in F_3 that commute pairwise (powers of one word) or need not;
    # the triples decide exactly when the sampled scan passes
    rng = random.Random(5)
    src, free = FreeNil2Group(3), FreeGroup(3)
    verdicts = set()
    for _ in range(300):
        w = free.random_element(rng, 3)
        images = [free.pow(w, rng.randint(-2, 2)) if rng.random() < 0.5
                  else free.random_element(rng, 3) for _ in range(3)]
        h = GroupHom(src, free, images)
        ok, _ = h.check_hom()
        commute = all(free.is_identity(free.commutator(x, y))
                      for x in images for y in images)
        assert ok == commute == sampled_check_hom(h, random.Random(0), 30)
        verdicts.add(ok)
    assert verdicts == {True, False}


# -- axioms 3 and 4 decided once per distinct pair of classes ------------------

def omega_calls_by_check(q, monkeypatch):
    """rqm_check(q), and the number of omega evaluations made
    while each check was scanned, of a tensor (`omega_apply`) or of an outer
    product (`omega_outer`)."""
    calls = []
    omega_apply, omega_outer = q.omega_apply, q.omega_outer
    monkeypatch.setattr(q, "omega_apply", lambda t: calls.append(t) or omega_apply(t))
    monkeypatch.setattr(q, "omega_outer",
                        lambda u, v: calls.append((u, v)) or omega_outer(u, v))
    per_check = {}
    first_failure = Report.first_failure

    def counted(rep, check_id, *args, **kw):
        before = len(calls)
        out = first_failure(rep, check_id, *args, **kw)
        per_check[check_id] = len(calls) - before
        return out
    monkeypatch.setattr(Report, "first_failure", counted)
    rep = rqm_check(q)
    monkeypatch.undo()
    return rep, per_check


def test_axioms_3_and_4_evaluate_omega_once_per_pair_of_classes(cylinder_q, monkeypatch):
    q = cylinder_q.rqm
    boundaries = {q.braces(q.d3(p)) for p in q.q3.generators()}
    assert (q.q2.ngens, q.q3.ngens, len(boundaries)) == (3, 10, 2)
    for _ in range(2):  # the memo lives for one call: the second pays the same
        rep, calls = omega_calls_by_check(q, monkeypatch)
        assert rep.ok
        # 2 x 3 pairs of classes for axiom 3 (not 10 x 3 generator pairs),
        # 2 x 2 for axiom 4 (not 10 x 10); axiom 2 is unchanged, 3 x 3
        assert {k: calls[k] for k in AXIOMS} == {
            "axiom2_d3_omega_is_commutator": 9,
            "axiom3_boundary_tensors_vanish": 6,
            "axiom4_q3_commutators": 4}


def nonabelian_q3(commuting=False):
    """Q2 = Z<x>, Q3 = free nil(2) on t, u, d3 = 0 and omega = 0: (t, u) is
    not 0, so axiom 4 fails at (t, u), although {d3 t} = {d3 u}.  With
    `commuting`, Q3 = Z^2 instead, and every axiom holds."""
    q2 = FreeNil2Group(1, names=("x",))
    q3 = FreeAbelianGroup(2) if commuting else FreeNil2Group(2, names=("t", "u"))
    return ReducedQuadraticModule(q2, q3, ((q3.identity(),),), GroupHom.zero(q3, q2))


def noncommuting_d3():
    """d3: Z^2 -> free nil(2), s -> x, t -> y, whose images do not commute."""
    src, tgt = FreeAbelianGroup(2, names=("s", "t")), FreeNil2Group(2, names=("x", "y"))
    return ReducedQuadraticModule(tgt, src, ((src.identity(),) * 2,) * 2,
                                  GroupHom(src, tgt, tgt.generators()))


def noncentral_omega():
    """Q3 free on t, u and omega(x (x) y) = (t, u) = -omega(y (x) x): every
    generator pair passes, but omega is not central."""
    q2, q3 = FreeNil2Group(2, names=("x", "y")), FreeGroup(2, names=("t", "u"))
    c, e = q3.commutator(*q3.generators()), q3.identity()
    return ReducedQuadraticModule(q2, q3, ((e, c), (q3.inv(c), e)),
                                  GroupHom(q3, q2, q2.generators()))


def test_rqm_check_agrees_with_the_pair_by_pair_scan(sphere_d, cylinder_q):
    modules = {"D": sphere_d.rqm, "Q": cylinder_q.rqm,
               **{f"firing-{i}": c.rqm for i, c in enumerate(FIRING)},
               "nonabelian_q3": nonabelian_q3(), "abelian_q3": nonabelian_q3(True),
               "nonhom_d3": nonhom_d3(), "omega_not_on_c": omega_not_on_c(),
               "noncommuting_d3": noncommuting_d3(), "noncentral_omega": noncentral_omega()}
    verdicts = set()
    for name, q in modules.items():
        rep = rqm_check(q)
        got = {c.check_id: (c.passed, c.witness, c.note, c.basis)
               for c in rep.checks if c.check_id in AXIOMS}
        assert [c.check_id for c in rep.checks][-3:] == list(AXIOMS)
        assert got == per_pair_axioms(q), name
        verdicts.update((k, v[0], v[3]) for k, v in got.items())
    # the modules reach a pass and a failure of each axiom, proved and not
    assert {(k, ok) for k, ok, _ in verdicts} == {(k, ok) for k in AXIOMS
                                                  for ok in (True, False)}
    assert {basis for _, _, basis in verdicts} == {"proved", None}


def test_axiom_4_in_a_nonabelian_q3_is_tested_pair_by_pair(monkeypatch):
    q = nonabelian_q3()
    rep, calls = omega_calls_by_check(q, monkeypatch)
    axiom4 = next(c for c in rep.checks if c.check_id == "axiom4_q3_commutators")
    assert (axiom4.passed, axiom4.basis) == (False, "proved")
    # (t, t) passes and (t, u) fails: both evaluate omega, although the two
    # pairs have the same classes ({d3 t}, {d3 u}) = (0, 0)
    assert calls["axiom4_q3_commutators"] == 2


def test_only_qm_checks_record_the_seed(monkeypatch):
    # the morphism and module checks sample nothing, so their reports record
    # no seed and build no generator; a qm check draws from its report's
    # generator, seeded from XQ_SEED
    monkeypatch.setenv("XQ_SEED", "5")
    for rep in (qcm_check(scale(doubling(), 1, 1)),
                xc3_morphism_check(scale_morphism(small_xc3(), 1)),
                rqm_check(nonabelian_q3())):
        assert rep.meta == {} and "rng" not in vars(rep)
    rep = qm_check(rank1_qm(), samples=3)
    assert rep.ok and rep.meta == {"seed": 5, "samples": 3}
    assert "rng" in vars(rep) and rep.rng.getstate() != random.Random(5).getstate()


def modules_of(structure):
    """The quadratic modules, reduced or not, of a read structure file."""
    v, kind = structure.value, structure.kind
    if kind in ("rqm", "qm"):
        return [v]
    if kind == "rqc4":
        complexes = [v]
    elif structure.sides is not sf.COMPLEX_KINDS["rqc4"]:
        return []
    elif kind == "pair":
        complexes = [cx for _, cx in v]
    else:
        m = v if kind == "morphism" else v[0]
        complexes = [m.source, m.target]
    return [cx.rqm for cx in complexes + [cx.under.base for cx in complexes if cx.under]]


def element_boundary_classes(q):
    """p |-> {d3 p} with d3 evaluated at p as an element, generators too:
    `quadratic._boundary_classes` before it read d3's image matrix."""
    return functools.cache(lambda p: q.braces(q.d3(p)))


def test_boundary_classes_at_generators_are_d3s_generator_coordinates(
        structures_dir, tmp_path, sphere_d, cylinder_q, monkeypatch):
    # Q with a d3 that is no homomorphism: Q3's canonical generator 1 is not
    # a unit vector, so d3 there is not images[1]
    q = cylinder_q.rqm
    broken = ReducedQuadraticModule(q.q2, q.q3, q.omega, q.d3.with_image(1, q.q2.gen(0)))
    modules = [sphere_d.rqm, q, broken, *(c.rqm for c in FIRING), nonabelian_q3(),
               nonabelian_q3(True), nonhom_d3(), omega_not_on_c(), noncommuting_d3(),
               noncentral_omega()]
    for path in corpus(structures_dir, tmp_path):
        with open(path, encoding="utf-8") as fh:
            modules += modules_of(sf.load_structure(fh.read()))
    assert {type(q).__name__ for q in modules} == {"ReducedQuadraticModule", "QuadraticModule"}
    for q in modules:
        boundary, gens = xq.quadratic._boundary_classes(q), q.q3.generators()
        assert [boundary(p) for p in gens] == [q.braces(q.d3(p)) for p in gens]

    def reports():
        return [(qm_check(q, samples=30, seed=4) if isinstance(q, QuadraticModule)
                 else rqm_check(q)).to_json() for q in modules]
    got = reports()
    monkeypatch.setattr(xq.quadratic, "_boundary_classes", element_boundary_classes)
    assert reports() == got
