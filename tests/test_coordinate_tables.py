"""The coordinate tables of a complex are built once, kept on the complex,
and freed with it."""

import gc
import json
import os
import weakref

import pytest

from xq.cli import run
from xq.quadratic import qcm_check, verify_rq_homotopy, rq_homotopy_decision
from xq.sphere import build_cylinder_Q, build_sphere_D, family_member, retraction_candidate
from xq.structfile import rqc4_body


def test_each_block_is_built_once_per_complex(sphere_d):
    q = build_cylinder_Q(sphere_d)
    base = retraction_candidate(q, sphere_d, 1, 0, 0)
    assert qcm_check(base).ok
    blocks = {name: getattr(q.coords, name) for name in ("generators", "d3", "d4", "omega",
                                                          "under")}
    omega_forms = sphere_d.coords.omega_forms
    for r in (1, -4, 9):
        m = family_member(base, r)
        assert qcm_check(m).ok
        w, _ = rq_homotopy_decision(base, m)
        assert verify_rq_homotopy(base, m, w).ok
    assert all(getattr(q.coords, name) is block for name, block in blocks.items())
    assert sphere_d.coords.omega_forms is omega_forms
    assert build_cylinder_Q(sphere_d).coords is not q.coords


def test_a_checked_complex_is_freed_without_the_cycle_collector():
    # D is its own base: it keeps the maps of its identity cofibration, not
    # the cofibration, which would refer back to D
    d = build_sphere_D()
    q = build_cylinder_Q(d)
    m = retraction_candidate(q, d, 0, 1, 0)
    assert qcm_check(m).ok and q.coords.under and d.coords.under
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
    complexes read from the files included, is freed by reference counting."""
    pair, f, g = (os.path.join(structures_dir, f"retraction_{name}.json")
                  for name in ("pair", "pr1", "pr1_twisted"))
    assert left_for_the_collector(["homotopic", pair, "--f", f, "--g", g]) == []
    assert capsys.readouterr().out.endswith("\nOK\n")


@pytest.mark.parametrize("command", ["count", "classify"])
def test_a_classification_run_leaves_no_cycle_of_the_package(command, tmp_path, capsys):
    """The same for `s2xs2 count --out` and `s2xs2 classify --out`: the
    lattices that list the solved points, the family decisions and the
    witnesses drained into the file are all freed by reference counting."""
    out = tmp_path / "report.json"
    assert left_for_the_collector(["s2xs2", command, "--out", str(out)]) == []
    assert capsys.readouterr().out and json.loads(out.read_text())["witnesses"]
