"""The coordinate tables of a complex are built once, kept on the complex,
and freed with it."""

import gc
import weakref

from xq.quadratic import qcm_check, verify_rq_homotopy, rq_homotopy_decision
from xq.sphere import build_cylinder_Q, family_member, retraction_candidate


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


def test_a_checked_complex_is_freed_without_the_cycle_collector(sphere_d):
    q = build_cylinder_Q(sphere_d)
    m = retraction_candidate(q, sphere_d, 0, 1, 0)
    assert qcm_check(m).ok and q.coords.under
    gone = weakref.ref(q)
    gc.disable()
    try:
        del q, m
        assert gone() is None
    finally:
        gc.enable()
