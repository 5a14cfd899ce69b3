"""The coordinates that the equations read are built once, kept on each
map and on each module's omega, and freed with the complex."""

import gc
import json
import os
import weakref

import pytest

from xq.cli import run
from xq.quadratic import qcm_check, verify_rq_homotopy, rq_homotopy_decision
from xq.sphere import build_cylinder_Q, build_sphere_D, family_member, retraction_candidate
from xq.structfile import rqc4_body


def kept_blocks(q, d):
    """The coordinates that the checks and decisions of morphisms Q -> D
    read: each map of Q's at its generators, and omega's of both modules."""
    maps = (q.d3, q.d4, q.under.q2, q.under.q3, q.under.q4)
    return ([h.coords_at_generators() for h in maps]
            + [q.rqm.omega_coords, d.rqm.omega_coords, d.rqm.omega_forms])


def test_each_block_is_built_once_per_complex(sphere_d):
    q = build_cylinder_Q(sphere_d)
    base = retraction_candidate(q, sphere_d, 1, 0, 0)
    assert qcm_check(base).ok
    blocks = kept_blocks(q, sphere_d)
    for r in (1, -4, 9):
        m = family_member(base, r)
        assert qcm_check(m).ok
        w, _ = rq_homotopy_decision(base, m)
        assert verify_rq_homotopy(base, m, w).ok
    assert all(a is b for a, b in zip(kept_blocks(q, sphere_d), blocks, strict=True))
    rebuilt = kept_blocks(build_cylinder_Q(sphere_d), sphere_d)
    assert all(a is not b for a, b in zip(rebuilt[:6], blocks))


def test_a_checked_complex_is_freed_without_the_cycle_collector():
    # D is its own base: it keeps the maps of its identity cofibration, not
    # the cofibration, which would refer back to D
    d = build_sphere_D()
    q = build_cylinder_Q(d)
    m = retraction_candidate(q, d, 0, 1, 0)
    assert qcm_check(m).ok
    assert all(h.coords_at_generators() is h.coords_at_generators()
               for c in (q, d) for h in (c.under.q2, c.under.q3, c.under.q4))
    assert q.rqm.omega_coords and d.rqm.omega_forms
    assert d.under.base is d and rqc4_body(d)["under"]["base"] == "self"
    gone = [weakref.ref(d), weakref.ref(q)]
    gc.disable()
    try:
        del d, q, m
        assert [ref() for ref in gone] == [None, None]
    finally:
        gc.enable()


def left_for_the_collector(argv: list[str]) -> list[str]:
    """The classes of the `xq` objects that one whole op through `xq.cli.run`
    leaves for the cycle collector; the op must succeed."""
    gc.collect()
    gc.disable()
    try:
        assert run(argv) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return sorted({type(o).__qualname__ for o in gc.garbage
                       if type(o).__module__.startswith("xq.")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_a_homotopic_run_leaves_no_cycle_of_the_package(structures_dir, capsys):
    """Every object of `xq` that one whole `homotopic` op builds, the
    complexes read from the files included, is freed by reference counting;
    and so is every object of `check` of each shipped structure file, the
    coordinates that its equations keep on maps and modules included."""
    pair, f, g = (os.path.join(structures_dir, f"retraction_{name}.json")
                  for name in ("pair", "pr1", "pr1_twisted"))
    shipped = sorted(os.listdir(structures_dir))
    assert len(shipped) == 6
    for argv in [["homotopic", pair, "--f", f, "--g", g]] + [
            ["check", os.path.join(structures_dir, name)] for name in shipped]:
        assert left_for_the_collector(argv) == [], argv
        assert capsys.readouterr().out.endswith("\nOK\n"), argv


@pytest.mark.parametrize("command", ["count", "classify"])
def test_a_classification_run_leaves_no_cycle_of_the_package(command, tmp_path, capsys):
    """The same for `s2xs2 count --out` and `s2xs2 classify --out`: the
    lattices that list the solved points, the family decisions and the
    witnesses drained into the file are all freed by reference counting."""
    out = tmp_path / "report.json"
    assert left_for_the_collector(["s2xs2", command, "--out", str(out)]) == []
    assert capsys.readouterr().out and json.loads(out.read_text())["witnesses"]
