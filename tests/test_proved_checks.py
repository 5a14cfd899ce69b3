"""Checks decided exactly carry basis "proved" and draw no samples; the
reduced quadratic module axioms 2 to 4 proved on generator pairs agree with
the sampled scans they replaced (`axiom_oracle.py`)."""

import json
import os
import random

import pytest

from xq import structfile as sf
from xq.cli import run
from xq.groups import FgAbelianGroup, FreeAbelianGroup, FreeGroup, FreeNil2Group, GroupHom
from xq.quadratic import ReducedQuadraticModule, rqc4_check, rqm_check
from xq.report import Check, Report

from axiom_oracle import sampled_axioms
from hom_oracle import sampled_check_hom
from test_check_firing import doubling

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
        rep = rqm_check(q, samples=1000, seed=0)
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


def test_shipped_complex_checks_are_proved_without_samples(cylinder_q, monkeypatch):
    q = cylinder_q
    draws = counting_draws(monkeypatch, q.q2, q.q3, q.q4)
    rep = rqc4_check(q, samples=1000, seed=0)
    assert rep.ok and draws == []
    assert {c.basis for c in rep.checks} == {"proved"}
    notes = {c.check_id: c.note for c in rep.checks}
    assert notes["axiom2_d3_omega_is_commutator"] == "all generator pairs; bilinear"


def test_axioms_sample_where_the_classes_are_not_bilinear(monkeypatch):
    # Q3 not abelian as presented: axioms 2 to 4 all sample
    q2, q3 = FreeNil2Group(1), FreeNil2Group(2)
    rqm = ReducedQuadraticModule(q2, q3, ((q3.identity(),),), GroupHom.zero(q3, q2))
    draws = counting_draws(monkeypatch, q2, q3)
    rep = rqm_check(rqm, samples=7, seed=0)
    basis = {c.check_id: (c.basis, c.note) for c in rep.checks if c.check_id in AXIOMS}
    assert basis == {k: ("sampled", "all generator pairs + 7 samples") for k in AXIOMS}
    assert len(draws) == 3 * 2 * 7
    # Q2 a free group: axiom 2 samples, axioms 3 and 4 are proved
    q2, q3 = FreeGroup(2), FgAbelianGroup(0)
    rqm = ReducedQuadraticModule(q2, q3, ((q3.identity(),) * 2,) * 2, GroupHom.zero(q3, q2))
    rep = rqm_check(rqm, samples=7, seed=0)
    assert [c.basis for c in rep.checks if c.check_id in AXIOMS] == \
        ["sampled", "proved", "proved"]


@pytest.mark.parametrize("broken", ["d3_is_homomorphism", "omega_well_defined_on_C"])
def test_axioms_sample_when_the_bilinearity_argument_fails(monkeypatch, broken):
    # d3: Z/2<t> -> Z<x>, t |-> x does not kill 2t; omega(x (x) x) = t on
    # Z/2<x> -> Z<t> does not kill 2x (x) x.  Both leave Q3 abelian.
    if broken == "d3_is_homomorphism":
        q2, q3 = FreeAbelianGroup(1), FgAbelianGroup(1, [[2]])
        rqm = ReducedQuadraticModule(q2, q3, ((q3.identity(),),),
                                     GroupHom(q3, q2, [q2.gen(0)]))
    else:
        q2, q3 = FgAbelianGroup(1, [[2]]), FreeAbelianGroup(1)
        rqm = ReducedQuadraticModule(q2, q3, ((q3.gen(0),),), GroupHom.zero(q3, q2))
    draws = counting_draws(monkeypatch, q2, q3)
    rep = rqm_check(rqm, samples=7, seed=0)
    assert [c.check_id for c in rep.checks if not c.passed] == [broken]
    basis = {c.check_id: (c.basis, c.note) for c in rep.checks if c.check_id in AXIOMS}
    assert basis == {k: ("sampled", "all generator pairs + 7 samples") for k in AXIOMS}
    assert len(draws) == 3 * 2 * 7


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
