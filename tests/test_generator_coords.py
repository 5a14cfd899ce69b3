"""Maps read at generators through their image matrices
(`GroupHom.coords_at_generators`): the same coordinates as evaluating each
generator as an element and abelianizing it (`hom_oracle`), in what the
equations of a complex's morphisms and homotopies read too, omega's
coordinates on the module included; d3 is evaluated at elements only for
a witness whose alpha2 has corrections; and the homotopy decision reads
f3, g3 and the shift where the verifier reads them."""

import json
import os
import random

import pytest

import xq.quadratic
from xq import structfile as sf
from xq.cli import run
from xq.crossed import _as_rows
from xq.groups import (CyclicGroup, FgAbelianGroup, FreeAbelianGroup, FreeGroup,
                       FreeNil2Group, GroupHom, coords_of)
from xq.quadratic import (QCHomotopy, ReducedQuadraticComplex4, ReducedQuadraticModule,
                          UnderCofibration, rq_homotopy_decision, verify_rq_homotopy)
from xq.sphere import build_cylinder_Q, retraction_candidate, retraction_shift

from equation_oracle import scan_verify_rq_homotopy
from hom_oracle import (coordinate_tables_by_elements, coords_at_generators_by_elements,
                        letter_eval)
from test_alpha2 import LetterAlpha2
from test_shared_values import broken_f3, identity_morphism, twisted_identity


def random_relations(rng, rank):
    """Up to two relation rows; a leading 1 followed by other entries makes
    canonical generators that are not unit vectors."""
    return [[rng.choice((0, 1, 1, 2, 3)) if k == j else rng.randint(-2, 2) * (k > j)
             for k in range(rank)] for j in rng.sample(range(rank), min(rank, rng.randint(1, 2)))]


def random_group(rng, abelian=False):
    kind = rng.choice(("fg_abelian", "fg_abelian", "free_abelian", "cyclic", "rank0")
                      + (() if abelian else ("free_nil2", "free_nil2", "free")))
    rank = rng.randint(1, 3)
    if kind == "fg_abelian":
        return FgAbelianGroup(rank, random_relations(rng, rank))
    if kind == "free_abelian":
        return FreeAbelianGroup(rank)
    if kind == "cyclic":
        return CyclicGroup(rng.randint(2, 5))
    if kind == "rank0":
        return FgAbelianGroup(0)
    return (FreeNil2Group if kind == "free_nil2" else FreeGroup)(rank)


def random_hom(rng, source, target):
    """Random images: into a group with relations they rarely define a
    homomorphism."""
    return GroupHom(source, target, [target.random_element(rng, size=4)
                                     for _ in range(source.ngens)])


def kinds_met(hom, seen):
    """Record what the case covers."""
    src, tgt = hom.source, hom.target
    if any(any(x) for x in src.lattice.basis()) and any(
            sum(map(abs, x)) != 1 for x in src.generators()):
        seen.add("non-unit generators")
    if not hom.check_hom()[0]:
        seen.add("not a homomorphism")
    if tgt.ngens == 0 and src.ngens:
        seen.add("rank-0 target")
    if isinstance(tgt, FreeNil2Group) and tgt.ngens >= 2:
        seen.add("free nil(2) target of rank >= 2")
    if isinstance(src, FreeGroup) and src.ngens >= 2:
        seen.add("free source")


ALL_KINDS = {"non-unit generators", "not a homomorphism", "rank-0 target",
             "free nil(2) target of rank >= 2", "free source"}


def assert_matches_the_reference(hom):
    got = hom.coords_at_generators()
    assert got is hom.coords_at_generators()
    assert got == coords_at_generators_by_elements(hom)
    assert got == [hom.target.ab(letter_eval(hom, x)) for x in hom.source.generators()]


def test_coords_at_generators_match_the_element_reference(cylinder_q, sphere_d):
    rng = random.Random(340)
    seen = set()
    for _ in range(300):
        hom = random_hom(rng, random_group(rng), random_group(rng))
        assert_matches_the_reference(hom)
        kinds_met(hom, seen)
    assert seen == ALL_KINDS
    # Q3 generator 1 is canonically (0,0,0,0,0,1,1,0,1,1), so broken_f3's
    # images[1] is not its value there
    f3 = broken_f3(cylinder_q, sphere_d).f3
    assert_matches_the_reference(f3)
    assert f3.coords_at_generators()[1] != f3.images[1]


def test_a_source_without_relations_is_read_from_the_image_columns():
    """Free abelian, free nil(2) and free sources: the values at the
    generators are M's columns reduced in the target, read without building
    the source's generators."""
    rng = random.Random(343)
    for _ in range(60):
        src = rng.choice((FreeAbelianGroup, FreeNil2Group, FreeGroup))(rng.randint(0, 3))
        hom = random_hom(rng, src, random_group(rng))
        at = hom.coords_at_generators()
        assert src._generators is None
        columns = [tuple(row[i] for row in hom.matrix()) for i in range(src.ngens)]
        assert at == list(map(hom.target.lattice.reduce, columns))
        assert_matches_the_reference(hom)


def random_complex(rng, base=None):
    """A complex whose maps and omega are random images, with Q2 nil(2) or
    free and Q4 abelian; with `base`, an under-object of random maps."""
    q2 = rng.choice((FreeNil2Group(rng.randint(2, 3)), FreeGroup(2), FreeNil2Group(1),
                     FgAbelianGroup(2, random_relations(rng, 2))))
    q3, q4 = random_group(rng), random_group(rng, abelian=True)
    omega = [[q3.random_element(rng, size=3) for _ in range(q2.ngens)] for _ in range(q2.ngens)]
    c = ReducedQuadraticComplex4(ReducedQuadraticModule(q2, q3, omega, random_hom(rng, q3, q2)),
                                 q4, random_hom(rng, q4, q3))
    if base is not None:
        c.under = UnderCofibration(base, *(random_hom(rng, getattr(base, k), getattr(c, k))
                                           for k in ("q2", "q3", "q4")))
    return c


def tables_the_equations_read(c):
    """What `qcm_equations` and `rq_homotopy_system` read of complex c, by
    the names of `coordinate_tables_by_elements`."""
    tables = {"boundaries": [c.d3.at_generator(i) for i in range(c.q3.ngens)],
              "d3": c.d3.coords_at_generators(), "d4": c.d4.coords_at_generators(),
              "generators": {k: [coords_of(grp, x) for x in grp.generators()]
                             for k, grp in ((2, c.q2), (3, c.q3), (4, c.q4))},
              "omega_coords": c.rqm.omega_coords, "omega_forms": c.rqm.omega_forms}
    if c.under is not None:
        maps = (c.under.q2, c.under.q3, c.under.q4)
        tables["under"] = {k: h.coords_at_generators() for k, h in zip((2, 3, 4), maps)}
        tables["under_rows"] = {k: _as_rows(h.coords_at_generators(), h.target.ngens)
                                for k, h in zip((2, 3, 4), maps)}
    return tables


def assert_tables_match(c, seen):
    assert tables_the_equations_read(c) == coordinate_tables_by_elements(c)
    # omega of the outer products of the classes of Q2's generators and of
    # d3's values, in coordinates, is omega_outer's fold once reduced
    vectors = [c.q2.ab(x) for x in c.q2.generators() + [c.d3(x) for x in c.q3.generators()]]
    rows = c.rqm.omega_rows(vectors)
    assert [c.q3.lattice.reduce(col) for col in zip(*rows)] == (
        [c.q3.ab(c.rqm.omega_outer(u, v)) for u in vectors for v in vectors] if rows else [])
    maps = [c.d3, c.d4] + ([c.under.q2, c.under.q3, c.under.q4] if c.under else [])
    for hom in maps:
        kinds_met(hom, seen)


def test_coordinate_tables_match_the_element_reference(cylinder_q, sphere_d):
    rng = random.Random(341)
    seen = set()
    for _ in range(120):
        base = random_complex(rng)
        assert_tables_match(random_complex(rng, base if rng.random() < 0.8 else None), seen)
    assert seen == ALL_KINDS
    # the shipped complexes, read on complexes of their own so that no
    # table is shared with another test
    q = build_cylinder_Q(sphere_d)
    for c in (q, q.under.base):
        assert_tables_match(c, seen)


def bench_witness(structures_dir, tmp_path, name, slot, r):
    """A homotopy file as the benchmark writes them: the shipped morphism
    (r = 0) against itself with f3(e3) = r w(e,e), alpha2 r at `slot`; f2
    = g2, so alpha2 has no corrections."""
    with open(os.path.join(structures_dir, name), encoding="utf-8") as fh:
        f = json.load(fh)["body"]
    g = json.loads(json.dumps(f["maps"]))
    g["f3"]["images"][0] = [r]
    alpha2 = [[0], [0], [0]]
    alpha2[slot] = [r]
    path = tmp_path / f"witness-{slot}-{r}.json"
    path.write_text(json.dumps({"version": "1", "kind": "homotopy", "body": {
        "source": f["source"], "target": f["target"], "f": f["maps"], "g": g,
        "witness": {"alpha2": alpha2, "alpha3": [[]] * len(g["f3"]["images"])}}}))
    return str(path)


def check_file(path):
    """`xq check` of path, and its values read as the command reads them."""
    assert run(["check", path]) == 0
    with open(path, encoding="utf-8") as fh:
        structure = sf.load_structure(fh.read())
    assert structure.check().ok
    return structure.value


class NoElements(GroupHom):
    """A map that evaluates no element.  Put in the place of a source's d3,
    it shows that the homotopy equations read d3 in coordinates alone."""

    def __call__(self, x):
        raise AssertionError("d3 evaluated at an element")

    at_generator = __call__


def test_a_homotopy_with_equal_f2_builds_no_element_table(structures_dir, tmp_path, capsys,
                                                          monkeypatch):
    paths = [bench_witness(structures_dir, tmp_path, name, slot, r)
             for name, slot in (("retraction_pr1.json", 1), ("retraction_pr2.json", 2))
             for r in (10, -10 ** 5)]
    pair, pr1, twisted = (os.path.join(structures_dir, f"retraction_{name}.json")
                          for name in ("pair", "pr1", "pr1_twisted"))
    witness = str(tmp_path / "w.json")
    assert run(["homotopic", pair, "--f", pr1, "--g", twisted, "--witness", witness]) == 0
    for path in paths + [witness]:
        f, g, h = check_file(path)
        assert f.f2.images == g.f2.images
        monkeypatch.setattr(f.source.d3, "__class__", NoElements)
        assert verify_rq_homotopy(f, g, h).ok
    # the decision itself, on the pair's complexes
    with open(pair, encoding="utf-8") as fh:
        (_, source), (_, target) = sf.load_structure(fh.read()).value
    f, g = (sf.bind_maps(sf.parse_structure(open(p, encoding="utf-8").read())["body"]["maps"],
                         "$.body.maps", "rqc4", source, target) for p in (pr1, twisted))
    monkeypatch.setattr(source.d3, "__class__", NoElements)
    w, rep = rq_homotopy_decision(f, g)
    assert w is not None and rep.ok
    # where alpha2 has corrections, the equations read d3 at elements
    zero = QCHomotopy((source.q3.identity(),) * source.q2.ngens,
                      (source.q4.identity(),) * source.q3.ngens)
    with pytest.raises(AssertionError, match="d3 evaluated at an element"):
        verify_rq_homotopy(identity_morphism(source), twisted_identity(source), zero)
    capsys.readouterr()


def test_a_witness_with_corrections_builds_the_element_table(sphere_d, monkeypatch):
    """Q -> Q with the twist of degree 2: alpha2 has corrections, so the
    equations read d3 of Q at its generators as elements, and the reports
    are the letter fold's."""
    q = build_cylinder_Q(sphere_d)
    rng = random.Random(342)
    ident, twist = identity_morphism(q), twisted_identity(q)
    witnesses = [QCHomotopy(tuple(q.q3.random_element(rng) for _ in range(q.q2.ngens)),
                            tuple(q.q4.random_element(rng) for _ in range(q.q3.ngens)))
                 for _ in range(4)]
    witnesses.append(QCHomotopy((q.q3.identity(),) * q.q2.ngens,
                                (q.q4.identity(),) * q.q3.ngens))
    pairs = [(ident, twist), (twist, ident)]
    closed = [verify_rq_homotopy(f, g, h).to_json() for f, g in pairs for h in witnesses]
    # the element scan agrees; the zero witness fails degree 3 by the
    # corrections alone
    assert closed == [scan_verify_rq_homotopy(f, g, h).to_json() for f, g in pairs
                      for h in witnesses]
    assert "homotopy_degree3" in [c.check_id for c in
                                  verify_rq_homotopy(ident, twist, witnesses[-1]).failed()]
    assert [q.d3.at_generator(i) for i in range(q.q3.ngens)] == [
        letter_eval(q.d3, x) for x in q.q3.generators()]
    monkeypatch.setattr(xq.quadratic, "Alpha2", LetterAlpha2)
    assert [verify_rq_homotopy(f, g, h).to_json() for f, g in pairs for h in witnesses] == closed


def test_the_decision_reads_f3_and_the_shift_where_the_verifier_does(cylinder_q, sphere_d):
    q, d = cylinder_q, sphere_d
    good, broken = retraction_candidate(q, d, 1, 0, 0), broken_f3(q, d)
    same, _ = rq_homotopy_decision(good, good)
    for f, g in ((broken, good), (good, broken)):
        w, rep = rq_homotopy_decision(f, g)
        assert w is not None and rep.ok
        assert verify_rq_homotopy(f, g, w).ok
        assert w.to_json(d) == same.to_json(d)
    # a shift with the same value at every canonical generator gives the
    # same solutions
    shift = retraction_shift(q, d)
    bent = shift[:1] + (d.q3.pow(d.q3.gen(0), 3),) + shift[2:]
    solved = [rq_homotopy_decision(good, good, s)[0] for s in (shift, bent)]
    assert [(s.u0, s.step, s.kernel0.basis()) for s in solved] == \
        [(solved[0].u0, solved[0].step, solved[0].kernel0.basis())] * 2
