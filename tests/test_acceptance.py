"""Acceptance suite: one timed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py` (output is unbuffered by the
project pytest options, so the lines below appear in order).
"""

import contextlib
import io
import itertools
import random
import time

from xq.cli import run
from xq.monoid import (M_NAMES, M_TABLE, mbar_compose, mbar_elements,
                       mbar_units, semidirect_compose)
from xq.quadratic import rq_homotopy_decision, rqc4_check, verify_rq_homotopy
from xq.sphere import (classify_retractions, enumerate_retractions, family_member,
                       retraction_candidate, solve_homology_constraints)

from letter_oracle import normalize_word
from oracle import oracle_normal_form, random_word


def announce(number, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.2f}s){suffix}")
    return ok


def test_acceptance_1_selfmap_count():
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = run(["s2xs2", "count"])
    elapsed = time.perf_counter() - start
    out = buf.getvalue()
    ok = (code == 0
          and "diagonal-fixing self-map classes of S^2 x S^2: 16" in out
          and elapsed < 1.0)
    assert announce(1, "self-map count is 16 in under 1s", ok, elapsed,
                    f"exit {code}")


def test_acceptance_2_two_retraction_classes(cylinder_q, sphere_d):
    start = time.perf_counter()
    morphisms = enumerate_retractions(cylinder_q, sphere_d,
                                      ab_range=3, r_bound=10)
    classes = classify_retractions(morphisms)
    elapsed = time.perf_counter() - start
    ab = sorted(c.ab for c in classes)
    ok = (len(classes) == 2 and ab == [(0, 1), (1, 0)] and elapsed < 5.0
          and all(len(c.members) == 21 for c in classes))
    assert announce(2, "exactly two classes at ab-range 3, r-bound 10",
                    ok, elapsed, f"classes {ab}")


def test_acceptance_3_canonical_witness_family(cylinder_q, sphere_d):
    start = time.perf_counter()
    base = retraction_candidate(cylinder_q, sphere_d, 1, 0, 0)
    q3 = sphere_d.q3
    ok = True
    detail = ""
    for r in range(-10, 11):
        other = retraction_candidate(cylinder_q, sphere_d, 1, 0, r)
        h, _ = rq_homotopy_decision(base, other)
        expected = (q3.identity(), q3.pow(q3.gen(0), r), q3.identity())
        if h is None or tuple(h.alpha2) != expected or \
                not all(sphere_d.q4.is_identity(a) for a in h.alpha3) or \
                not verify_rq_homotopy(base, other, h).ok:
            ok = False
            detail = f"failed at r = {r}"
            break
    elapsed = time.perf_counter() - start
    assert announce(3, "canonical witness (0, r, 0) across the (1,0) family",
                    ok, elapsed, detail)


def test_acceptance_4_extended_monoid():
    start = time.perf_counter()
    expected = {"I": ("I", "T", "P'", "P''"),
                "T": ("T", "I", "P'", "P''"),
                "P'": ("P'", "P''", "P'", "P''"),
                "P''": ("P''", "P'", "P'", "P''")}
    ok = all(M_TABLE[m] == expected[m] for m in M_NAMES)
    elements = mbar_elements()
    ok = ok and len(elements) == 16
    for a, b, c in itertools.product(elements, repeat=3):
        if mbar_compose(mbar_compose(a, b), c) != \
                mbar_compose(a, mbar_compose(b, c)):
            ok = False
            break
    units = mbar_units()
    ok = ok and len(units) == 8
    phi = {u: (u.m == "T", u.v) for u in units}
    ok = ok and all(phi[mbar_compose(a, b)] == semidirect_compose(phi[a], phi[b])
                    for a in units for b in units)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert announce(4, "extended monoid: table, associativity, 8 units, "
                       "semidirect structure", ok, elapsed)


def test_acceptance_5_homology_constraints():
    start = time.perf_counter()
    sols, rep = solve_homology_constraints()
    elapsed = time.perf_counter() - start
    ok = rep.ok and sols == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert announce(5, "homology constraint solutions", ok, elapsed,
                    f"{sols}")


def test_acceptance_6_nil2_against_oracle():
    start = time.perf_counter()
    rng = random.Random(20260825)
    mismatches = 0
    total = 12000
    for _ in range(total):
        n = rng.randint(1, 3)
        w = random_word(rng, n, 8)
        got = normalize_word(w, n)
        if (got.base, got.comm) != oracle_normal_form(w, n):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    assert announce(6, f"nil(2) normal forms vs rewriting oracle on {total} "
                       "words", ok, elapsed, f"{mismatches} mismatches")


def test_acceptance_7_structure_axioms(cylinder_q, sphere_d):
    start = time.perf_counter()
    rep_d = rqc4_check(sphere_d)
    rep_q = rqc4_check(cylinder_q)
    elapsed = time.perf_counter() - start
    ok = rep_d.ok and rep_q.ok
    assert announce(7, "sphere and cylinder structures, proved on generators",
                    ok, elapsed)


def test_acceptance_8_homotopy_is_an_equivalence(cylinder_q, sphere_d):
    start = time.perf_counter()
    ms = [family_member(m.base, m.tag[2])
          for m in enumerate_retractions(cylinder_q, sphere_d, ab_range=2, r_bound=1)]
    by_tag = {m.tag: m for m in ms}
    ok = len(ms) == 6
    detail = ""
    # reflexive, with verified zero witnesses
    for m in ms:
        h, _ = rq_homotopy_decision(m, m)
        if h is None or not verify_rq_homotopy(m, m, h).ok or \
                not all(sphere_d.q3.is_identity(a) for a in h.alpha2):
            ok, detail = False, f"reflexivity fails at {m.tag}"
            break
    # symmetric and transitive inside each class, obstructed across
    if ok:
        for (a, b) in ((1, 0), (0, 1)):
            chain = [by_tag[(a, b, r)] for r in (-1, 0, 1)]
            for f, g in ((chain[0], chain[1]), (chain[1], chain[2]),
                         (chain[0], chain[2])):
                hf, _ = rq_homotopy_decision(f, g)
                hb, _ = rq_homotopy_decision(g, f)
                if hf is None or hb is None or \
                        not verify_rq_homotopy(f, g, hf).ok or \
                        not verify_rq_homotopy(g, f, hb).ok:
                    ok, detail = False, f"symmetry/transitivity at {f.tag} ~ {g.tag}"
                    break
            if not ok:
                break
    if ok:
        h, _ = rq_homotopy_decision(by_tag[(1, 0, 0)], by_tag[(0, 1, 0)])
        if h is not None:
            ok, detail = False, "cross-class pair wrongly declared homotopic"
    elapsed = time.perf_counter() - start
    assert announce(8, "homotopy is reflexive, symmetric, transitive on the "
                       "retraction family", ok, elapsed, detail)
