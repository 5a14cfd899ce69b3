"""Command line interface.

Exit codes: 0 all checks passed / homotopy found; 1 a check failed or no
homotopy exists; 2 a usage error, an input file that cannot be read or is
malformed, an output path that cannot be written, or a homotopy question
outside the linear route (a target whose d3 is not central on generators).
`check` decides every kind of structure file on generators, except a
quadratic module over a pre-crossed base (kind qm), some of whose axioms
are sampled; its seed defaults to the XQ_SEED environment variable, so
repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import structfile as sf
from .monoid import (M_NAMES, mbar_check_structure, mbar_elements,
                     mbar_table, monoid_M_table)
# bound but not called here: bench/test_bench.py checks that the
# benchmark's tracer wraps it at every site that binds it, this one included
from .quadratic import qcm_check
from .sphere import classification_report


def _read(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise sf.StructureError(f"cannot read {path}: {e.strerror or e}")
    return sf.parse_structure(text)


def _load(path: str) -> tuple[dict, sf.StructureFile]:
    raw = _read(path)
    return raw, sf.build_structure(raw)


def _bind_to_pair(raw: dict, pair_sides: list, pair_value):
    """The morphism file `raw` bound to the pair's built complexes, or None
    when it is not a morphism between them.

    `pair_sides` holds (side, its `structure_bytes`) for the pair's source
    and target.  Sides that agree with the pair's (`same_structure`: equal
    bytes, or else equal `structure_key`) are its complexes, so only the
    maps are built.  Any other file, or one without maps, is built whole,
    so that a malformed file reports its own positioned error before the
    caller refuses it."""
    body = raw["body"]
    if raw["kind"] == "morphism" and "maps" in body and all(
            sf.same_structure(body.get(side), *known)
            for side, known in zip(sf.SIDES, pair_sides)):
        (kind, source), (_, target) = pair_value
        return sf.bind_maps(body["maps"], "$.body.maps", kind, source, target)
    sf.build_structure(raw)
    return None


def _cmd_check(args) -> int:
    raw, structure = _load(args.file)
    rep = structure.check(samples=args.samples, seed=args.seed)
    sys.stdout.write(rep.text())
    if args.out:
        sf.write_text(args.out, rep.to_json())
    return 0 if rep.ok else 1


def _cmd_homotopic(args) -> int:
    pair_raw, pair = _load(args.pair)
    if pair.kind != "pair":
        raise sf.StructureError("expected a pair of complexes", path="$.kind")
    pair_sides = [(side, sf.structure_bytes(side))
                  for side in map(pair_raw["body"].get, sf.SIDES)]
    f_raw = _read(args.f)
    f = _bind_to_pair(f_raw, pair_sides, pair.value)
    g_raw = _read(args.g)
    g = _bind_to_pair(g_raw, pair_sides, pair.value)
    # a file is refused only once both are read and built, so that a fault
    # in reading or building either one is reported first
    for label, mraw, m in (("--f", f_raw, f), ("--g", g_raw, g)):
        if m is not None:
            continue
        if mraw["kind"] != "morphism":
            raise sf.StructureError(f"{label} must be a morphism file",
                                    path="$.kind")
        side = next(side for side, known in zip(sf.SIDES, pair_sides)
                    if not sf.same_structure(mraw["body"][side], *known))
        raise sf.StructureError(
            f"{label}: morphism {side} differs from the pair's {side}",
            path=f"$.body.{side}")
    spec, target = pair.sides, pair.value[1][1]
    for label, m in (("f", f), ("g", g)):
        chk = spec.morphism_check(m)
        if not chk.ok:
            sys.stdout.write(f"morphism {label} is not valid:\n")
            sys.stdout.write(chk.text())
            if args.out:
                sf.write_text(args.out, chk.to_json())
            return 1
    witness, rep = spec.decide(f, g)
    sys.stdout.write(rep.text())
    if args.out:
        sf.write_text(args.out, rep.to_json())
    if witness is None:
        return 1
    if args.witness:
        obj = {"version": sf.FORMAT_VERSION, "kind": "homotopy",
               "body": {"source": pair_raw["body"]["source"],
                        "target": pair_raw["body"]["target"],
                        "f": f_raw["body"]["maps"],
                        "g": g_raw["body"]["maps"],
                        "witness": witness.to_json(target)}}
        sf.write_text(args.witness, sf.serialize_structure(obj))
    return 0


def _cmd_monoid(args) -> int:
    rep = mbar_check_structure()
    sys.stdout.write(rep.text())
    if args.table or args.out:
        m_table = monoid_M_table()
        elements = mbar_elements()
        labels = [str(x) for x in elements]
        products = mbar_table()
        table = [[str(products[x, y]) for y in elements] for x in elements]
    if args.table:
        lines = ["composition table of M (rows m, columns m'):",
                 "      " + "  ".join(f"{n:3}" for n in M_NAMES)]
        lines += [f"  {m:3} " + "  ".join(f"{v:3}" for v in row)
                  for m, row in zip(M_NAMES, m_table)]
        lines += ["", "composition table of the extended monoid "
                      "(16 elements, row o column):"]
        lines += [f"  {label:12} " + " ".join(f"{c:12}" for c in row)
                  for label, row in zip(labels, table)]
        sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        sf.write_text(args.out, rep.to_json(m_table=dict(zip(M_NAMES, m_table)),
                                            elements=labels, table=table))
    return 0 if rep.ok else 1


def _cmd_classify(args) -> int:
    rep = classification_report(ab_range=args.ab_range, r_bound=args.r_bound)
    sys.stdout.write(rep.text())
    if args.out:
        # taken from meta after the text, which prints them among the meta
        # lines, so that the file holds them once, at the top level
        classes, count = rep.meta.pop("classes"), rep.meta.pop("count")
        sf.write_text(args.out, rep.to_json(classes=classes, count=count))
    return 0 if rep.ok else 1


def _cmd_count(args) -> int:
    rep = classification_report(ab_range=args.ab_range, r_bound=args.r_bound)
    sys.stdout.write(rep.text())
    sys.stdout.write("diagonal-fixing self-map classes of S^2 x S^2: "
                     f"{rep.meta['count']}\n")
    if args.out:
        sf.write_text(args.out, rep.to_json())
    return 0 if rep.ok else 1


def _non_negative(text: str) -> int:
    """An integer option that bounds a box or counts samples, so that it
    may not be negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process.  Each subcommand names its handler,
    which `run` looks up when it dispatches, so a replaced `_cmd_*` function
    is the one called."""
    p = argparse.ArgumentParser(
        prog="xq",
        description="exact checks and homotopy classification for algebraic "
                    "models of 3- and 4-dimensional homotopy types")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="validate a structure file and run its "
                                     "axiom checks")
    c.add_argument("file")
    c.add_argument("--samples", type=_non_negative, default=200,
                   help="sample count for the sampled axioms of a qm file "
                        "(default 200); other kinds sample nothing")
    c.add_argument("--seed", type=int, default=None,
                   help="seed for the sampled axioms of a qm file; overrides "
                        "the XQ_SEED environment variable")
    c.add_argument("--out", help="write the JSON report here")
    c.set_defaults(command_name="check")

    h = sub.add_parser("homotopic", help="decide whether two morphisms bound "
                                         "to a pair of complexes are homotopic")
    h.add_argument("pair", help="structure file of kind 'pair'")
    h.add_argument("--f", required=True, help="morphism file")
    h.add_argument("--g", required=True, help="morphism file")
    h.add_argument("--witness", help="write the homotopy witness file here")
    h.add_argument("--out", help="write the JSON report here")
    h.set_defaults(command_name="homotopic")

    s = sub.add_parser("s2xs2", help="the S^2 x S^2 case study")
    ssub = s.add_subparsers(dest="s2xs2_command", required=True)

    cl = ssub.add_parser("classify", help="enumerate and classify retractions "
                                          "of the cylinder model")
    cl.add_argument("--ab-range", type=_non_negative, default=3)
    cl.add_argument("--r-bound", type=_non_negative, default=10)
    cl.add_argument("--out", help="write the JSON report here")
    cl.set_defaults(command_name="classify")

    mo = ssub.add_parser("monoid", help="check the extended composition monoid")
    mo.add_argument("--table", action="store_true",
                    help="print the composition tables")
    mo.add_argument("--out", help="write the JSON report here")
    mo.set_defaults(command_name="monoid")

    co = ssub.add_parser("count", help="derive the diagonal-fixing self-map "
                                       "count")
    co.add_argument("--ab-range", type=_non_negative, default=2)
    co.add_argument("--r-bound", type=_non_negative, default=2)
    co.add_argument("--out", help="write the JSON report here")
    co.set_defaults(command_name="count")
    return p


def run(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return globals()[f"_cmd_{args.command_name}"](args)
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
