import json
from collections import Counter

import pytest

import xq
from xq.quadratic import QCMorphism, qcm_check, rq_homotopy_decision, rqc4_check
from xq.groups import CyclicGroup, FreeNil2Group
from xq.intlinalg import Lattice
from xq.report import Report
from xq.sphere import (FamilyDecisions, classify_retractions, derive_reduced_q3,
                       enumerate_retractions, family_member, family_witnesses,
                       retraction_candidate, solve_homology_constraints)

from classify_oracle import (derived_witnesses, greedy_classes, homotopy_from_json,
                             member_witnesses)
from test_enumeration import doubling_target


def test_structures_valid(sphere_d, cylinder_q):
    assert rqc4_check(sphere_d).ok
    assert rqc4_check(cylinder_q).ok


def test_sphere_d_shape(sphere_d):
    d = sphere_d
    assert d.q2.ngens == 1 and d.q2.is_nil2
    assert d.q3.ngens == 1 and d.q4.ngens == 0
    assert d.d3.is_zero()
    # omega is an isomorphism on the single basis tensor
    assert d.q3.eq(d.rqm.omega[0][0], d.q3.gen(0))
    # carries the identity cofibration so that retractions compose to id
    assert d.under is not None and d.under.base is d


def test_cylinder_q_relations_are_the_derived_ones(cylinder_q):
    rows, boundaries = derive_reduced_q3(
        cylinder_q.q2,
        [cylinder_q.q2.op_all(cylinder_q.q2.inv(cylinder_q.q2.gen(0)),
                              cylinder_q.q2.gen(1), cylinder_q.q2.gen(2))])
    assert rows == [
        [0, -2, 1, 1, 1, 0, 0, 1, 0, 0],
        [0, 0, -1, 0, -1, 2, 1, 0, 1, 0],
        [0, 0, 0, -1, 0, 0, 1, -1, 1, 2],
        [0, 1, -1, -1, -1, 1, 1, -1, 1, 1],
    ]
    # boundaries: the 3-cell then the commutator grid
    q2 = cylinder_q.q2
    assert q2.ab(boundaries[0]) == (-1, 1, 1)
    for i in range(3):
        for j in range(3):
            assert q2.eq(boundaries[1 + 3 * i + j],
                         q2.commutator(q2.gen(i), q2.gen(j)))
    # d4 attaches the symmetrized (e', e'') square
    e4 = cylinder_q.q4.gen(0)
    assert cylinder_q.q3.eq(cylinder_q.d4(e4),
                            cylinder_q.q3.op(cylinder_q.q3.gen(1 + 3 * 1 + 2),
                                             cylinder_q.q3.gen(1 + 3 * 2 + 1)))


def test_enumeration_finds_exactly_six(cylinder_q, sphere_d):
    ms = enumerate_retractions(cylinder_q, sphere_d, ab_range=2, r_bound=1)
    assert [m.tag for m in ms] == [
        (0, 1, -1), (0, 1, 0), (0, 1, 1),
        (1, 0, -1), (1, 0, 0), (1, 0, 1),
    ]
    for m in ms:
        assert qcm_check(family_member(m.base, m.tag[2])).ok


@pytest.mark.parametrize("a,b", [(1, 1), (0, 0), (2, 0), (-1, 1)])
def test_non_projection_candidates_are_rejected(cylinder_q, sphere_d, a, b):
    m = retraction_candidate(cylinder_q, sphere_d, a, b, 0)
    rep = qcm_check(m)
    assert not rep.ok
    failing = {c.check_id for c in rep.failed()}
    # the failure is structural: a homomorphism or square condition
    assert failing & {"f3_is_homomorphism", "square_d3", "square_d4",
                      "under_degree2", "under_degree3"}


def test_homology_constraints():
    sols, rep = solve_homology_constraints()
    assert rep.ok, rep.text()
    assert sols == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    # degree-4 obstruction k = 1 singles out the projection types
    assert sorted((a, b) for a, b, k in sols if k == 1) == [(0, 1), (1, 0)]


def test_classification_two_classes(cylinder_q, sphere_d):
    ms = enumerate_retractions(cylinder_q, sphere_d, ab_range=2, r_bound=1)
    classes = classify_retractions(ms)
    assert len(classes) == 2
    assert sorted(c.ab for c in classes) == [(0, 1), (1, 0)]
    for c in classes:
        assert c.representative.tag[2] == 0
        assert len(c.members) == 3


def test_classification_stable_under_larger_bounds(cylinder_q, sphere_d):
    for r_bound in (0, 2, 4):
        ms = enumerate_retractions(cylinder_q, sphere_d, ab_range=2,
                                   r_bound=r_bound)
        classes = classify_retractions(ms)
        assert sorted(c.ab for c in classes) == [(0, 1), (1, 0)]
        for c in classes:
            assert len(c.members) == 2 * r_bound + 1


@pytest.mark.parametrize("family,expect_index", [((1, 0), 1), ((0, 1), 2)])
def test_canonical_family_witnesses(cylinder_q, sphere_d, family, expect_index):
    a, b = family
    base = retraction_candidate(cylinder_q, sphere_d, a, b, 0)
    for r in (-3, -1, 1, 2):
        other = retraction_candidate(cylinder_q, sphere_d, a, b, r)
        h, rep = rq_homotopy_decision(base, other)
        assert h is not None, rep.text()
        # canonical witness: alpha2 supported on the one of e', e'' that
        # the retraction sends to e, with coefficient r
        for i in range(3):
            expected = sphere_d.q3.pow(sphere_d.q3.gen(0),
                                       r if i == expect_index else 0)
            assert sphere_d.q3.eq(h.alpha2[i], expected)
        assert all(sphere_d.q4.is_identity(x) for x in h.alpha3)
        assert xq.verify_rq_homotopy(base, other, h).ok


def test_classification_report_passes():
    rep = xq.classification_report(ab_range=2, r_bound=2)
    assert rep.ok, rep.text()
    assert rep.meta["count"] == 16
    assert sorted(tuple(c["ab"]) for c in rep.meta["classes"]) == [(0, 1), (1, 0)]
    assert rep.axioms  # topological inputs are declared, not computed
    assert rep.obstructions  # the cross-class obstruction is recorded


def test_count_assembly(monkeypatch, tmp_path, capsys):
    from xq.cli import run

    assert run(["s2xs2", "count"]) == 0
    text = capsys.readouterr().out
    # the count is the classification report's, with its structure checks
    assert text == xq.classification_report(2, 2).text() + \
        "diagonal-fixing self-map classes of S^2 x S^2: 16\n"
    assert "PASS structure_Q_valid" in text
    # unexpected class counts flag the derivation but still report a number
    classify = xq.sphere.classify_retractions

    def three_classes(*args):
        classes = classify(*args)
        return classes + classes[:1]

    monkeypatch.setattr(xq.sphere, "classify_retractions", three_classes)
    out = tmp_path / "count.json"
    assert run(["s2xs2", "count", "--out", str(out)]) == 1
    assert capsys.readouterr().out.endswith(
        "diagonal-fixing self-map classes of S^2 x S^2: 36\n")
    rep3 = json.loads(out.read_text())
    assert not rep3["ok"] and rep3["meta"]["count"] == 36
    assert any(c["id"] == "two_classes" and not c["passed"] for c in rep3["checks"])


def test_a_relation_q3_needs_fails_structure_q_not_the_build(monkeypatch, capsys):
    """Without the last derived relation row Q3 is not commutative.  Q is
    still built, and the report's structure check says so."""
    from xq.cli import run

    derive = xq.sphere.derive_reduced_q3

    def without_last_row(q2, cells):
        rows, boundaries = derive(q2, cells)
        return rows[:-1], boundaries

    monkeypatch.setattr(xq.sphere, "derive_reduced_q3", without_last_row)
    rep = xq.classification_report(2, 2)
    assert [(c.check_id, c.witness) for c in rep.failed()] == \
        [("structure_Q_valid", "axiom4_q3_commutators")]
    assert run(["s2xs2", "count"]) == 1
    captured = capsys.readouterr()
    assert "FAIL structure_Q_valid" in captured.out
    assert "Traceback" not in captured.err


def written(classes, decisions) -> dict:
    """The JSON of a report holding the classes and their witness entries,
    as `classification_report` writes them."""
    rep = Report("classes")
    rep.meta["classes"] = [{"representative": list(c.representative.tag),
                            "members": [list(m.tag) for m in c.members]} for c in classes]
    rep.witnesses = family_witnesses(decisions, classes)
    return json.loads(rep.to_json())


def assert_verified(witnesses, q, target):
    """Every derived witness is a homotopy between the candidates its pair
    names."""
    for w in witnesses:
        f, g = (retraction_candidate(q, target, *tag) for tag in w["pair"])
        assert xq.verify_rq_homotopy(f, g, homotopy_from_json(w, target)).ok, w["pair"]


def test_classification_keeps_each_members_witness(cylinder_q, sphere_d):
    ms = enumerate_retractions(cylinder_q, sphere_d, ab_range=2, r_bound=2)
    decisions = FamilyDecisions()
    classes = classify_retractions(ms, decisions)
    for c in classes:
        assert [m.tag[2] for m in c.members] == [-2, -1, 0, 1, 2]
    witnesses = derived_witnesses(written(classes, decisions))
    assert len(witnesses) == 10
    assert_verified(witnesses, cylinder_q, sphere_d)


def test_classification_report_decides_each_pair_once(monkeypatch):
    import hashlib

    import xq.quadratic
    import xq.sphere

    calls = []
    decide = xq.quadratic.rq_homotopy_decision

    def counting(f, g, *shift):
        calls.append((f.tag, g.tag))
        return decide(f, g, *shift)

    monkeypatch.setattr(xq.quadratic, "rq_homotopy_decision", counting)
    monkeypatch.setattr(xq.sphere, "rq_homotopy_decision", counting)
    # one decision per r-family and one for the cross pair, at every box
    for ab_range, r_bound in ((2, 2), (5, 30), (3, 10)):
        calls.clear()
        rep = xq.classification_report(ab_range=ab_range, r_bound=r_bound)
        assert len(calls) == 3
    # the report is byte-identical to the one that decided every pair twice,
    # but for its witnesses, now one entry per pair of families
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == \
        "eba2e670dd64ffbb7e1b4d69b6be33ce4ba9b91ec840cd68081d4500cc17c069"
    assert hashlib.sha256(rep.text().encode()).hexdigest() == \
        "184579fd57d83b7237ce9dfea7ac62b36ca8bd22dc0eb908a7593c2f83d1000a"


PINNED_CLASSIFY = {
    # sha256 of the text and of the --out JSON of `xq s2xs2 classify`; the
    # JSON was pinned again when its class list and count left `meta`
    (3, 20): ("9a9cedf57c7a5e6bef210f54e98b9c91160fcb270c24bbfefe1c81b327784c09",
              "e73d9f368ba76114a6298748c3ad096ca91c36498e72926c2bd069d2135c25e2"),
    (4, 14): ("6a45bb47f057e8286d5e6056f5fd9431381dd49ace998366c858e0d4ca6af9d0",
              "90d1c58dd0e1a513bd86667a8b0977f339072216eec8b8d62278d7890d2542c3"),
    (5, 10): ("f04d0c96f98220f125f206bbd4be2dad4b427d87ad5317c00e8417a465e5827a",
              "c122efe4925f55b60eec6eccf80ae5a196bb18d7ce2343189cf61428e4e348ba"),
}


@pytest.mark.parametrize("box", sorted(PINNED_CLASSIFY), ids=lambda box: "%d-%d" % box)
def test_classify_output_is_pinned_at_the_benchmark_boxes(box, tmp_path, capsys, monkeypatch):
    import hashlib

    from xq.cli import run

    monkeypatch.delenv("XQ_SEED", raising=False)
    out = tmp_path / "classify.json"
    assert run(["s2xs2", "classify", "--ab-range", str(box[0]), "--r-bound", str(box[1]),
                "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert (hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(out.read_bytes()).hexdigest()) == PINNED_CLASSIFY[box]


def same_classes(target, ab_range, r_bound, cylinder_q):
    """The family classification and the greedy oracle agree on the
    partition, representatives and member order, and every member's witness
    derived from the written witness entries, the representative's
    included, is the oracle's and verifies; returns the classes and the
    written report."""
    ms = enumerate_retractions(cylinder_q, target, ab_range, r_bound)
    decisions = FamilyDecisions()
    classes = classify_retractions(ms, decisions)
    expected = greedy_classes([family_member(m.base, m.tag[2]) for m in ms])
    assert [(c.ab, c.representative.tag, [m.tag for m in c.members]) for c in classes] == \
        [(c.ab, c.representative.tag, [m.tag for m in c.members]) for c in expected]
    report = written(classes, decisions)
    witnesses = derived_witnesses(report)
    assert witnesses == member_witnesses(expected, target)
    assert_verified(witnesses, cylinder_q, target)
    return classes, report


@pytest.mark.parametrize("ab_range,r_bound", [(0, 0), (1, 0), (2, 2), (3, 10), (3, 20)])
def test_family_classification_matches_the_greedy_oracle(cylinder_q, sphere_d,
                                                        ab_range, r_bound):
    same_classes(sphere_d, ab_range, r_bound, cylinder_q)


@pytest.mark.parametrize("q2,family_sizes,step", [(FreeNil2Group(1), {1: 22}, 0),
                                                  (CyclicGroup(6), {2: 16, 1: 8}, 3)],
                         ids=["single", "progression"])
def test_family_classification_matches_the_greedy_oracle_across_families(
        cylinder_q, q2, family_sizes, step):
    # 22 and 24 r-families, Z/6 ones of 2 members (r0 + 3Z in [-2, 2]); both
    # classes span families
    classes, report = same_classes(doubling_target(q2), 3, 2, cylinder_q)
    by_family = Counter(m.tag[:2] for c in classes for m in c.members)
    assert Counter(by_family.values()) == family_sizes
    assert len(classes) == 2
    assert all(len({m.tag[:2] for m in c.members}) > 1 for c in classes)
    # one witness entry per family, from its class representative's family
    assert len(report["witnesses"]) == len(by_family)
    assert {e["step"] for e in report["witnesses"]} == {step}


@pytest.mark.parametrize("box", [(0, 0), (3, 20)], ids=lambda box: "%d-%d" % box)
def test_each_members_witness_follows_from_the_classify_file_alone(
        box, tmp_path, capsys, cylinder_q, sphere_d):
    from xq.cli import run

    out = tmp_path / "classify.json"
    run(["s2xs2", "classify", "--ab-range", str(box[0]), "--r-bound", str(box[1]),
         "--out", str(out)])
    capsys.readouterr()
    report = json.loads(out.read_text())
    witnesses = derived_witnesses(report)
    ms = enumerate_retractions(cylinder_q, sphere_d, *box)
    assert witnesses == member_witnesses(
        greedy_classes([family_member(m.base, m.tag[2]) for m in ms]), sphere_d)
    assert len(witnesses) == len(ms) == report["meta"]["retractions"]
    assert_verified(witnesses, cylinder_q, sphere_d)
    # one entry per r-family: each class is one family on D
    assert [e["families"] for e in report.get("witnesses", [])] == \
        [[c["ab"], c["ab"]] for c in report["classes"]]


def test_classification_rejects_an_untagged_morphism(cylinder_q, sphere_d):
    c = retraction_candidate(cylinder_q, sphere_d, 0, 0, 0)
    m = QCMorphism(c.source, c.target, c.f2, c.f3, c.f4, tag=None)
    with pytest.raises(ValueError, match="not a tagged retraction candidate"):
        classify_retractions([m])


def test_classification_checks_a_constant_number_of_times(monkeypatch):
    counts = Counter()

    def counting(name):
        fn = getattr(xq.sphere, name)

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("qcm_check", "verify_rq_homotopy", "rq_homotopy_decision"):
        monkeypatch.setattr(xq.sphere, name, counting(name))
    seen = []
    for ab_range, r_bound in ((3, 10), (8, 60), (20, 200)):
        counts.clear()
        rep = xq.classification_report(ab_range=ab_range, r_bound=r_bound)
        assert rep.ok and rep.meta["count"] == 16
        assert [len(c["members"]) for c in rep.meta["classes"]] == [2 * r_bound + 1] * 2
        assert counts["rq_homotopy_decision"] == 3
        seen.append((counts["qcm_check"], counts["verify_rq_homotopy"]))
    # three checked members per r-family and three verified points per family
    # decision that admits a shift, however many members the box holds
    assert seen == [(6, 6)] * 3


def corrupt_family_decisions(monkeypatch, corrupt):
    """Make every family decision that admits a shift pass through corrupt."""
    decide = xq.sphere.rq_homotopy_decision

    def corrupted(f, g, *shift):
        solutions, rep = decide(f, g, *shift)
        if solutions is not None:
            corrupt(solutions)
        return solutions, rep

    monkeypatch.setattr(xq.sphere, "rq_homotopy_decision", corrupted)


def wrong_witness_slope(solutions):
    solutions.step_row = tuple(x + (k == 2) for k, x in enumerate(solutions.step_row))


def wrong_step(solutions):
    solutions.step *= 2


@pytest.mark.parametrize("corrupt", [wrong_witness_slope, wrong_step])
def test_a_family_decision_with_a_wrong_slope_is_rejected(
        monkeypatch, cylinder_q, sphere_d, corrupt):
    ms = enumerate_retractions(cylinder_q, sphere_d, 2, 2)
    solutions, _ = FamilyDecisions().decide(ms[0], ms[0])
    assert (solutions.t0, solutions.step, solutions.step_row) == (0, 1, (1, 0, 1, 0))
    corrupt_family_decisions(monkeypatch, corrupt)
    with pytest.raises(RuntimeError, match=r"r-families \(0, 1\) and \(0, 1\) fails at t = "):
        classify_retractions(ms)


def test_a_family_decision_with_a_wrong_kernel_row_is_rejected(
        monkeypatch, cylinder_q, sphere_d):
    ms = enumerate_retractions(cylinder_q, sphere_d, 2, 2)
    solutions, _ = FamilyDecisions().decide(ms[0], ms[0])
    assert solutions.kernel0.basis() == [(0, 1, -1, 0)]

    def wrong_kernel_row(solutions):
        solutions.kernel0 = Lattice(4, [(0, 1, 0, 0)])

    corrupt_family_decisions(monkeypatch, wrong_kernel_row)
    with pytest.raises(RuntimeError, match=r"fails at t = 0 kernel row \[0, 1, 0, 0\]"):
        classify_retractions(ms)


def test_a_family_whose_third_member_fails_its_check_is_rejected(
        monkeypatch, cylinder_q, sphere_d):
    check = xq.sphere.qcm_check

    def failing_at(tag):
        def checked(m):
            rep = check(m)
            if m.tag == tag:
                rep.add("square_d3", False, "corrupted")
            return rep
        return checked

    # members -10, -9 and -8 are checked; -8 guards that the defect is affine
    monkeypatch.setattr(xq.sphere, "qcm_check", failing_at((1, 0, -8)))
    with pytest.raises(RuntimeError, match=r"solved candidate \(1, 0, -8\) fails"):
        enumerate_retractions(cylinder_q, sphere_d, 3, 10)
    # the members after the third are covered by the argument, not checked
    monkeypatch.setattr(xq.sphere, "qcm_check", failing_at((1, 0, -7)))
    assert len(enumerate_retractions(cylinder_q, sphere_d, 3, 10)) == 42


def test_a_report_builds_no_member_witness_and_no_member_morphism():
    """A classification report holds one witness entry per pair of
    r-families, the same entries at every box: while it is alive, no
    `QCHomotopy` and no per-member witness JSON has been made, and each
    r-family has kept at most its base and three checked members as
    morphisms."""
    import gc

    from xq.quadratic import QCHomotopy

    def alive():
        objects = gc.get_objects()
        return [{id(o) for o in objects if test(o)} for test in (
            lambda o: type(o) is QCMorphism, lambda o: type(o) is QCHomotopy,
            lambda o: type(o) is dict and "pair" in o and "alpha2" in o)]

    gc.collect()
    before = alive()
    rep = xq.classification_report(20, 200)
    assert rep.text() and len(rep.meta["classes"]) == 2
    gc.collect()
    morphisms, homotopies, witnesses = (now - then for now, then in zip(alive(), before))
    assert rep.meta["retractions"] == 802
    assert len(morphisms) <= 4 * 2 and not homotopies and not witnesses
    assert [e["families"] for e in rep.witnesses] == [[[0, 1], [0, 1]], [[1, 0], [1, 0]]]
    assert rep.witnesses == xq.classification_report(3, 10).witnesses
