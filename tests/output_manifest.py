"""The output manifest: one sha256 per `xq` op of a fixed list, over the
op's exit code, stdout, stderr and every file it writes.

The ops are those of every workload of `bench/inputs.py` at seeds 1 to 3,
then `s2xs2 classify --out` at the boxes 3/10, 3/20, 8/60 and 20/200,
`s2xs2 count --out`, `s2xs2 monoid --table --out`, `check --out` of
each shipped structure file, the text-only `s2xs2 classify` at the boxes
of `TEXT_BOXES` and `s2xs2 count`, which write no file, and last
`homotopic` and `check` of crossed 3-complexes with non-trivial actions,
their morphisms and a crossed module (`crossed_cases`).  They
run in this process through `xq.cli.run`, in list order (a `check` of a
witness reads the file an earlier `homotopic` wrote), with `XQ_SEED`
unset.  The work directory and the repository root are replaced by `$WORK`
and `$ROOT` in argv, in the streams and in the files, so the digests
depend on neither.

    python3 tests/output_manifest.py          # rewrite tests/golden/outputs.sha256
    python3 tests/output_manifest.py --check  # compare, naming the first difference

A change that alters output rewrites the manifest and names each changed op.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "golden", "outputs.sha256")
SEEDS = (1, 2, 3)
CLASSIFY_BOXES = ((3, 10), (3, 20), (8, 60), (20, 200))
TEXT_BOXES = ((20, 200), (200, 2000))
SHIPPED = ("sphere_D.json", "cylinder_Q.json", "retraction_pair.json",
           "retraction_pr1.json", "retraction_pr1_twisted.json", "retraction_pr2.json")
WRITES = ("--out", "--witness")


def bench_inputs():
    """`bench/inputs.py`, loaded under a name of its own."""
    spec = importlib.util.spec_from_file_location(
        "xq_bench_inputs", os.path.join(ROOT, "bench", "inputs.py"))
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def ops(work: str) -> list[tuple[str, list[str]]]:
    """(op id, argv) of every op, its input files written into `work`."""
    inputs = bench_inputs()
    out = []
    for workload in inputs.WORKLOADS:
        for seed in SEEDS:
            listed = inputs.build_ops(workload, seed, ROOT,
                                      os.path.join(work, f"{workload}-{seed}"))
            out += [(f"{workload}/{seed}/{i:03d}", op.argv) for i, op in enumerate(listed)]
    extra = os.path.join(work, "extra")
    os.makedirs(extra)
    extra_ops = [["s2xs2", "classify", "--ab-range", str(a), "--r-bound", str(r),
                  "--out", os.path.join(extra, f"classify-{a}-{r}.json")]
                 for a, r in CLASSIFY_BOXES]
    extra_ops += [["s2xs2", "count", "--out", os.path.join(extra, "count.json")],
                  ["s2xs2", "monoid", "--table", "--out", os.path.join(extra, "monoid.json")]]
    extra_ops += [["check", os.path.join(ROOT, "structures", name),
                   "--out", os.path.join(extra, f"check-{name}")] for name in SHIPPED]
    extra_ops += [["s2xs2", "classify", "--ab-range", str(a), "--r-bound", str(r)]
                  for a, r in TEXT_BOXES]
    extra_ops += [["s2xs2", "count"]]
    out += [(f"extra/{i:03d}", argv) for i, argv in enumerate(extra_ops)]
    out += [(f"crossed/{i:03d}", argv) for i, argv in enumerate(_crossed_ops(work))]
    return out


def _nil2(*base: int) -> dict:
    return {"base": list(base), "comm": [0] * (len(base) * (len(base) - 1) // 2)}


def crossed_cases() -> list:
    """(name, side, maps, pairs) of the crossed 3-complexes with non-trivial
    actions: side is the complex as a structure, maps(*m) the maps of the
    morphism m from it to itself, and pairs its (f, g, homotopic) pairs.

    - swap: M1 = nil(2)<a>, M2 = Z^2 = <x, y> with a swapping x and y by a
      table, M3 = Z<t> acted on trivially, d3(t) = x + y and d2 = 0; the
      morphism (p, q) is (id, [[p, q], [q, p]], t -> (p + q) t), and (1, 0)
      is homotopic to (3, 2) by alpha = (2t, 2t) but not to (2, 0);
    - conj: the identity crossed module of nil(2)<a, b> acting on itself by
      conjugation, M3 = Z<t> and d3 = 0, so degree 2 is not abelian as
      presented; the morphism (k,) is (id, id, t -> k t), and the identity
      is homotopic to itself by the zero witness, and not to (3,)."""
    def complex3(m1, m2, d2, action2, d3):
        return {"kind": "xc3", "body": {
            "m1": m1, "m2": m2, "m3": {"kind": "free_abelian", "rank": 1, "names": ["t"]},
            "d2": {"images": d2}, "d3": {"images": [d3]}, "action2": action2,
            "action3": {"kind": "trivial"}, "under2": [], "under3": []}}

    nil2_a = {"kind": "free_nil2", "rank": 1, "names": ["a"]}
    nil2_ab = {"kind": "free_nil2", "rank": 2, "names": ["a", "b"]}
    identity = {"images": [_nil2(1, 0), _nil2(0, 1)]}
    return [
        ("swap", complex3(nil2_a, {"kind": "free_abelian", "rank": 2, "names": ["x", "y"]},
                          [_nil2(0)] * 2, {"table": [[[0, 1]], [[1, 0]]]}, [1, 1]),
         lambda p, q: {"f1": {"images": [_nil2(1)]},
                       "f2": {"images": [[p, q], [q, p]]}, "f3": {"images": [[p + q]]}},
         [((1, 0), (3, 2), True), ((1, 0), (2, 0), False)]),
        ("conj", complex3(nil2_ab, nil2_ab, identity["images"], {"kind": "conjugation"},
                          _nil2(0, 0)),
         lambda k: {"f1": identity, "f2": identity, "f3": {"images": [[k]]}},
         [((1,), (1,), True), ((1,), (3,), False)])]


def _crossed_ops(work: str) -> list[list[str]]:
    """`homotopic --out` of each pair of `crossed_cases`, with `--witness`
    and a `check` of the witness where a homotopy is found, then `check
    --out` of each morphism file of those pairs, of the swap morphism
    (id, x, y -> x, t -> t), which fails square_d3 and f2_equivariant, of
    both complexes as xc3 files and of the crossed module of conj; their
    input files are written into `work/crossed`."""
    crossed = os.path.join(work, "crossed")
    os.makedirs(crossed)

    def write(name: str, kind: str, body: dict) -> str:
        path = os.path.join(crossed, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"version": "1", "kind": kind, "body": body}, fh)
        return path

    ops, checked, cases = [], {}, {}
    for name, side, maps, pairs in crossed_cases():
        cases[name] = side, maps
        pair = write(f"{name}-pair", "pair", {"source": side, "target": side})
        for f, g, found in pairs:
            f_path, g_path = (write(f"{name}-" + "-".join(map(str, m)), "morphism",
                                    {"source": side, "target": side, "maps": maps(*m)})
                              for m in (f, g))
            checked.update(dict.fromkeys((f_path, g_path)))
            stem = os.path.join(crossed, "-".join([name, *map(str, f + g)]))
            ops.append(["homotopic", pair, "--f", f_path, "--g", g_path,
                        "--out", stem + "-report.json"]
                       + (["--witness", stem + "-witness.json"] if found else []))
            if found:
                ops.append(["check", stem + "-witness.json", "--out", stem + "-check.json"])
    (swap, swap_maps), (conj, _) = cases["swap"], cases["conj"]
    broken = {**swap_maps(1, 0), "f2": {"images": [[1, 0], [1, 0]]}}
    checked.update(dict.fromkeys((
        write("swap-broken", "morphism", {"source": swap, "target": swap, "maps": broken}),
        write("swap-complex", "xc3", swap["body"]), write("conj-complex", "xc3", conj["body"]),
        write("conj-module", "crossed", {key: conj["body"][key] for key in ("m1", "m2")}
              | {"d": conj["body"]["d2"], "action": conj["body"]["action2"]}))))
    return ops + [["check", path, "--out", path[:-len(".json")] + "-check.json"]
                  for path in checked]


def _placeholders(text: str, work: str) -> str:
    return text.replace(work, "$WORK").replace(ROOT, "$ROOT")


def digest(cli, argv: list[str], work: str) -> str:
    """The sha256 of one op's exit code, streams and written files."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(list(argv))
    h = hashlib.sha256()
    for part in (str(code), stdout.getvalue(), stderr.getvalue()):
        h.update(_placeholders(part, work).encode() + b"\0")
    for flag, path in zip(argv, argv[1:]):
        if flag in WRITES and os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            h.update(f"{flag} {_placeholders(path, work)}\0".encode())
            h.update(_placeholders(text, work).encode() + b"\0")
    return h.hexdigest()


def build() -> list[str]:
    """The manifest's lines: digest, op id and argv with placeholders."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import xq.cli

    saved = os.environ.pop("XQ_SEED", None)
    try:
        with tempfile.TemporaryDirectory(prefix="xq-manifest-") as work:
            work = os.path.realpath(work)
            return [f"{digest(xq.cli, argv, work)}  {op_id}  "
                    + _placeholders(" ".join(argv), work)
                    for op_id, argv in ops(work)]
    finally:
        if saved is not None:
            os.environ["XQ_SEED"] = saved


def first_difference(got: list[str], want: list[str]) -> str | None:
    """A message naming the first op whose line differs, or None."""
    for new, old in zip(got, want):
        if new != old:
            digest, op = old.split("  ", 1)
            return f"first differing op: {op} (digest {new.split()[0]}, manifest {digest})"
    if len(got) != len(want):
        return f"{len(got)} ops now, {len(want)} in the manifest"
    return None


def read() -> list[str]:
    with open(MANIFEST, encoding="utf-8") as fh:
        return fh.read().splitlines()


def main(argv: list[str]) -> int:
    lines = build()
    if argv == ["--check"]:
        why = first_difference(lines, read())
        print(why or f"{len(lines)} ops match {MANIFEST}")
        return 1 if why else 0
    if argv:
        sys.exit("usage: output_manifest.py [--check]")
    os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    print(f"wrote {len(lines)} ops to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
