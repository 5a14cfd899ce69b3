"""The output manifest: one sha256 per `xq` op of a fixed list, over the
op's exit code, stdout, stderr and every file it writes.

The ops are those of every workload of `bench/inputs.py` at seeds 1 to 3,
then `s2xs2 classify --out` at the boxes 3/10, 3/20, 8/60 and 20/200,
`s2xs2 count --out`, `s2xs2 monoid --table --out` and `check --out` of
each shipped structure file.  They run in this process through
`xq.cli.run`, in list order (a `check` of a witness reads the file an
earlier `homotopic` wrote), with `XQ_SEED` unset.  The work directory and
the repository root are replaced by `$WORK` and `$ROOT` in argv, in the
streams and in the files, so the digests depend on neither.

    python3 tests/output_manifest.py          # rewrite tests/golden/outputs.sha256
    python3 tests/output_manifest.py --check  # compare, naming the first difference

A change that alters output rewrites the manifest and names each changed op.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "golden", "outputs.sha256")
SEEDS = (1, 2, 3)
CLASSIFY_BOXES = ((3, 10), (3, 20), (8, 60), (20, 200))
SHIPPED = ("sphere_D.json", "cylinder_Q.json", "retraction_pair.json",
           "retraction_pr1.json", "retraction_pr1_twisted.json", "retraction_pr2.json")
WRITES = ("--out", "--witness")


def _bench_inputs():
    """`bench/inputs.py`, loaded under a name of its own."""
    spec = importlib.util.spec_from_file_location(
        "xq_bench_inputs", os.path.join(ROOT, "bench", "inputs.py"))
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def ops(work: str) -> list[tuple[str, list[str]]]:
    """(op id, argv) of every op, its input files written into `work`."""
    inputs = _bench_inputs()
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
    out += [(f"extra/{i:03d}", argv) for i, argv in enumerate(extra_ops)]
    return out


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
