"""Canonical structure files shipped with the package.

Run `PYTHONPATH=src python3 tests/shipped.py [DIR]` to (re)generate them in
DIR (default `structures`); `tests/test_structfile.py` asserts that the
files in structures/ match this generator byte for byte.
"""

from __future__ import annotations

import os
import sys

from xq.sphere import build_cylinder_Q, build_sphere_D, retraction_candidate
from xq.structfile import (morphism_structure, pair_structure, rqc4_structure,
                           serialize_structure, write_text)


def shipped_structures() -> dict[str, dict]:
    d = build_sphere_D()
    q = build_cylinder_Q(d)
    return {
        "sphere_D.json": rqc4_structure(d),
        "cylinder_Q.json": rqc4_structure(q),
        "retraction_pair.json": pair_structure(q, d),
        "retraction_pr1.json": morphism_structure(retraction_candidate(q, d, 1, 0, 0)),
        "retraction_pr1_twisted.json": morphism_structure(retraction_candidate(q, d, 1, 0, 1)),
        "retraction_pr2.json": morphism_structure(retraction_candidate(q, d, 0, 1, 0)),
    }


def write_shipped(dirpath: str) -> list[str]:
    os.makedirs(dirpath, exist_ok=True)
    written = []
    for name, obj in sorted(shipped_structures().items()):
        path = os.path.join(dirpath, name)
        write_text(path, serialize_structure(obj))
        written.append(path)
    return written


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "structures"
    for path in write_shipped(target):
        print(path)
