"""Seeded inputs for the benchmark workloads.

`build_ops(workload, seed, root, work)` writes every structure file a
workload needs into `work` and returns the workload's fixed op list.  The
same seed gives the same files and the same list.  Inputs are written by
hand from the shipped structure files, so the generator does not call the
code under test.

Each op is one `xq` command line plus the outcome the oracle expects.
"""

from __future__ import annotations

import copy
import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("classify_box", "check_files", "homotopy_pairs")

# Boxes (A, R) whose classify runs cost about the same: the scan grows with
# (2A+1)^2 (2R+1) candidates and the class decisions with the 2(2R+1) kept
# ones, so a wider (a, b) range is paired with a shorter r range.
CLASSIFY_BOXES = ((3, 20), (4, 14), (5, 10))

CHECK_SAMPLES_HEAVY = 1000
CHECK_SAMPLES = 200
RQ_SAME_CLASS_PAIRS = 32
RQ_CROSS_CLASS_PAIRS = 16
RQ_R_BOUND = 50
XC3_HOMOTOPIC_PAIRS = 16
XC3_EVEN_PAIRS = 8
XC3_UNDER_ROUNDS = 4
XC3_K_BOUND = 5
# Morphisms and witnesses with r = +10^k and r = -10^k for each k and
# class.  A negative r costs more to evaluate than a positive one, so every
# list holds both.
CHECK_EXPONENTS = range(1, 6)

# (a, b) -> shipped morphism file with r = 0, and the alpha2 slot that
# carries r in the canonical witness (0, r, 0) resp. (0, 0, r).
RQ_CLASSES = {(1, 0): ("retraction_pr1.json", 1),
              (0, 1): ("retraction_pr2.json", 2)}
SHIPPED_MORPHISMS = ("retraction_pr1.json", "retraction_pr1_twisted.json",
                     "retraction_pr2.json")


@dataclass
class Op:
    """One `xq` invocation: argv, the kind of oracle and what it expects.

    `known_defect` marks inputs whose expected outcome (exit 2) the program
    does not meet yet; they count as failed but do not make the run wrong.
    """

    kind: str
    argv: list[str]
    expect: dict = field(default_factory=dict)
    known_defect: bool = False


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write(path: str, obj: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _structures(root: str) -> str:
    return os.path.join(root, "structures")


def _rq_morphism(root: str, ab: tuple[int, int], r: int) -> dict:
    """Retraction (a, b, r): the shipped r = 0 file with f3(e3) = r w(e,e)."""
    m = _load(os.path.join(_structures(root), RQ_CLASSES[ab][0]))
    m["body"]["maps"]["f3"]["images"][0] = [r]
    return m


def _rq_witness(f: dict, g: dict, ab: tuple[int, int], dr: int) -> dict:
    alpha2 = [[0], [0], [0]]
    alpha2[RQ_CLASSES[ab][1]] = [dr]
    n3 = len(f["body"]["maps"]["f3"]["images"])
    return {"version": "1", "kind": "homotopy",
            "body": {"source": f["body"]["source"],
                     "target": f["body"]["target"],
                     "f": f["body"]["maps"], "g": g["body"]["maps"],
                     "witness": {"alpha2": alpha2, "alpha3": [[]] * n3}}}


def _nil2(k: int) -> dict:
    return {"base": [k], "comm": []}


def _xc3_body(under2: bool) -> dict:
    """M3 = Z --x2--> M2 = Z --0--> M1 = Z with trivial actions."""
    return {"m1": {"kind": "free_nil2", "rank": 1, "names": ["a"]},
            "m2": {"kind": "free_nil2", "rank": 1, "names": ["x"]},
            "m3": {"kind": "free_abelian", "rank": 1, "names": ["t"]},
            "d2": {"images": [_nil2(0)]},
            "d3": {"images": [_nil2(2)]},
            "action2": {"kind": "trivial"},
            "action3": {"kind": "trivial"},
            "under2": [_nil2(1)] if under2 else [],
            "under3": []}


def _xc3_pair(under2: bool) -> dict:
    cx = {"kind": "xc3", "body": _xc3_body(under2)}
    return {"version": "1", "kind": "pair",
            "body": {"source": cx, "target": copy.deepcopy(cx)}}


def _xc3_morphism(under2: bool, m: int) -> dict:
    """The morphism (id, x -> m x, t -> m t)."""
    cx = {"kind": "xc3", "body": _xc3_body(under2)}
    return {"version": "1", "kind": "morphism",
            "body": {"source": cx, "target": copy.deepcopy(cx),
                     "maps": {"f1": {"images": [_nil2(1)]},
                              "f2": {"images": [_nil2(m)]},
                              "f3": {"images": [[m]]}}}}


def _nonzero(rng: random.Random) -> int:
    return rng.choice([v for v in range(-XC3_K_BOUND, XC3_K_BOUND + 1) if v])


class _Files:
    """Names generated files in one work directory."""

    def __init__(self, work: str):
        self.work = work
        self.n = 0

    def path(self, stem: str) -> str:
        self.n += 1
        return os.path.join(self.work, f"{self.n:03d}-{stem}.json")

    def write(self, stem: str, obj: dict) -> str:
        return _write(self.path(stem), obj)


def _classify_ops(files: _Files) -> list[Op]:
    ops = [Op("count", ["s2xs2", "count", "--out", files.path("count")],
              {"exit": 0, "count": 16}),
           Op("monoid", ["s2xs2", "monoid", "--table",
                         "--out", files.path("monoid")],
              {"exit": 0, "elements": 16})]
    for a, r in CLASSIFY_BOXES:
        ops.append(Op("classify",
                      ["s2xs2", "classify", "--ab-range", str(a),
                       "--r-bound", str(r), "--out", files.path(f"classify-{a}-{r}")],
                      {"exit": 0, "r_bound": r, "count": 16}))
    return ops


def _malformed(rng: random.Random, root: str, files: _Files) -> list[Op]:
    """The documented input defects: a float, a string and a bool inside a
    nil(2) element.  The bool replaces an entry equal to 1, so the file
    still reads as a valid morphism if bools pass as integers."""
    ops = []
    for stem, bad in (("float", 1.5), ("string", "1"), ("bool", True)):
        name = rng.choice(SHIPPED_MORPHISMS)
        m = _load(os.path.join(_structures(root), name))
        images = m["body"]["maps"]["f2"]["images"]
        slots = [i for i, e in enumerate(images)
                 if not isinstance(bad, bool) or e["base"][0] == 1]
        images[rng.choice(slots)]["base"][0] = bad
        path = files.write(f"malformed-{stem}", m)
        ops.append(Op("check", ["check", path, "--out", files.path("report")],
                      {"exit": 2}, known_defect=True))
    return ops


def _check_ops(rng: random.Random, root: str, files: _Files) -> list[Op]:
    s = _structures(root)
    ops = []
    for name in ("cylinder_Q.json", "retraction_pair.json"):
        ops.append(Op("check", ["check", os.path.join(s, name), "--samples",
                                str(CHECK_SAMPLES_HEAVY), "--out",
                                files.path("report")], {"exit": 0}))
    for name in ("sphere_D.json",) + SHIPPED_MORPHISMS:
        ops.append(Op("check", ["check", os.path.join(s, name), "--samples",
                                str(CHECK_SAMPLES), "--out",
                                files.path("report")], {"exit": 0}))
    for k in CHECK_EXPONENTS:
        for ab in sorted(RQ_CLASSES):
            for r in (10 ** k, -10 ** k):
                base = _rq_morphism(root, ab, 0)
                g = _rq_morphism(root, ab, r)
                mpath = files.write(f"morphism-{ab[0]}{ab[1]}-r{r}", g)
                wpath = files.write(f"witness-{ab[0]}{ab[1]}-r{r}",
                                    _rq_witness(base, g, ab, r))
                for path in (mpath, wpath):
                    ops.append(Op("check", ["check", path, "--samples",
                                            str(CHECK_SAMPLES), "--out",
                                            files.path("report")], {"exit": 0}))
    ops.extend(_malformed(rng, root, files))
    return ops


def _homotopic(files: _Files, pair: str, f: str, g: str, expect: dict,
               family: str) -> list[Op]:
    """A `homotopic` op; a found witness is re-checked by a `check` op."""
    witness = files.path(f"witness-{family}")
    ops = [Op("homotopic", ["homotopic", pair, "--f", f, "--g", g,
                            "--witness", witness, "--out",
                            files.path("report")],
              dict(expect, witness_path=witness))]
    if expect["exit"] == 0:
        ops.append(Op("check", ["check", witness, "--out",
                                files.path("report")], {"exit": 0}))
    return ops


def _homotopy_ops(rng: random.Random, root: str, files: _Files) -> list[Op]:
    pair = os.path.join(_structures(root), "retraction_pair.json")
    groups = []
    classes = sorted(RQ_CLASSES)
    for i in range(RQ_SAME_CLASS_PAIRS):
        ab = classes[i % 2]
        rf, rg = (rng.randint(-RQ_R_BOUND, RQ_R_BOUND) for _ in range(2))
        f_obj, g_obj = _rq_morphism(root, ab, rf), _rq_morphism(root, ab, rg)
        f, g = files.write("rq-f", f_obj), files.write("rq-g", g_obj)
        witness = _rq_witness(f_obj, g_obj, ab, rg - rf)["body"]["witness"]
        groups.append(_homotopic(files, pair, f, g,
                                 {"exit": 0, "witness": witness}, "rq"))
    for i in range(RQ_CROSS_CLASS_PAIRS):
        abf, abg = classes[i % 2], classes[1 - i % 2]
        f = files.write("rq-f", _rq_morphism(root, abf,
                                             rng.randint(-RQ_R_BOUND, RQ_R_BOUND)))
        g = files.write("rq-g", _rq_morphism(root, abg,
                                             rng.randint(-RQ_R_BOUND, RQ_R_BOUND)))
        groups.append(_homotopic(files, pair, f, g,
                                 {"exit": 1, "obstruction": True}, "rq"))

    xpair = files.write("xc3-pair", _xc3_pair(under2=False))
    for _ in range(XC3_HOMOTOPIC_PAIRS):
        kf, kg = (rng.randint(-XC3_K_BOUND, XC3_K_BOUND) for _ in range(2))
        f = files.write("xc3-f", _xc3_morphism(False, 1 + 2 * kf))
        g = files.write("xc3-g", _xc3_morphism(False, 1 + 2 * kg))
        groups.append(_homotopic(files, xpair, f, g,
                                 {"exit": 0, "witness": {"alpha": [[kg - kf]]}},
                                 "xc3"))
    for _ in range(XC3_EVEN_PAIRS):
        # an odd and an even multiplier differ by an odd multiple of x,
        # which is not in the image 2Z of d3
        k = rng.randint(-XC3_K_BOUND, XC3_K_BOUND)
        m = _nonzero(rng)
        f = files.write("xc3-f", _xc3_morphism(False, 1 + 2 * k))
        g = files.write("xc3-g", _xc3_morphism(False, 2 * m))
        groups.append(_homotopic(files, xpair, f, g,
                                 {"exit": 1, "obstruction": True}, "xc3"))

    # with x under the cofibration only the identity is a morphism: it is
    # homotopic to itself by the zero witness, and a scaled map is rejected
    upair = files.write("xc3u-pair", _xc3_pair(under2=True))
    ident = files.write("xc3u-id", _xc3_morphism(True, 1))
    for _ in range(XC3_UNDER_ROUNDS):
        groups.append(_homotopic(files, upair, ident, ident,
                                 {"exit": 0, "witness": {"alpha": [[0]]}},
                                 "xc3u"))
        k = _nonzero(rng)
        scaled = files.write("xc3u-g", _xc3_morphism(True, 1 + 2 * k))
        groups.append(_homotopic(files, upair, ident, scaled,
                                 {"exit": 1, "failed_check": "under_degree2"},
                                 "xc3u"))
    rng.shuffle(groups)
    return [op for group in groups for op in group]


def build_ops(workload: str, seed: int, root: str, work: str) -> list[Op]:
    """Write the workload's inputs for `seed` into `work`; return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of "
                         + ", ".join(WORKLOADS))
    os.makedirs(work, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    files = _Files(work)
    if workload == "classify_box":
        ops = _classify_ops(files)
    elif workload == "check_files":
        ops = _check_ops(rng, root, files)
    else:
        return _homotopy_ops(rng, root, files)
    rng.shuffle(ops)
    return ops
