"""Expected-outcome checks (the oracle) for benchmark ops.

An op passes when its exit code and its mathematical result match: the
class partition and count for `classify`, the count for `count`, the
monoid order for `monoid`, the report's `ok`, the canonical witness for a
homotopy found, and an obstruction for a homotopy refuted.  Only these
fields are read, so reports may gain fields (such as proved/sampled tags)
without failing the oracle.
"""

from __future__ import annotations

import json

from inputs import Op


def _report(argv: list[str]) -> dict:
    path = argv[argv.index("--out") + 1]
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _classes_ok(report: dict, r_bound: int) -> str | None:
    classes = report.get("classes", [])
    got = sorted(tuple(c["ab"]) for c in classes)
    if got != [(0, 1), (1, 0)]:
        return f"class types {got}"
    for c in classes:
        a, b = c["ab"]
        want = sorted([a, b, r] for r in range(-r_bound, r_bound + 1))
        if sorted(c["members"]) != want:
            return f"class {c['ab']} has members {c['members']}"
        if c["representative"] != [a, b, 0]:
            return f"class {c['ab']} represented by {c['representative']}"
    return None


def judge(op: Op, code) -> str | None:
    """None when the op met its expected outcome, else the reason.

    `code` is the exit code, or the name of an exception that escaped
    `xq.cli.run`.  A report or witness that is missing or not shaped as
    expected fails the op; it does not stop the benchmark."""
    try:
        return _judge(op, code)
    except (OSError, ValueError, LookupError, TypeError) as e:
        return f"unreadable result: {e!r}"


def _judge(op: Op, code) -> str | None:
    want = op.expect["exit"]
    if code != want:
        return f"exit {code}, expected {want}"
    if want == 2:
        return None
    report = _report(op.argv)
    if op.kind == "count":
        if report.get("meta", {}).get("count") != op.expect["count"]:
            return f"count {report.get('meta', {}).get('count')}"
    elif op.kind == "monoid":
        if len(report.get("elements", [])) != op.expect["elements"]:
            return f"{len(report.get('elements', []))} monoid elements"
    elif op.kind == "classify":
        if report.get("count") != op.expect["count"]:
            return f"count {report.get('count')}"
        why = _classes_ok(report, op.expect["r_bound"])
        if why:
            return why
    elif op.kind == "homotopic" and want == 0:
        with open(op.expect["witness_path"], "r", encoding="utf-8") as fh:
            witness = json.load(fh)["body"]["witness"]
        if witness != op.expect["witness"]:
            return f"witness {witness}, expected {op.expect['witness']}"
    elif op.kind == "homotopic":
        if op.expect.get("obstruction") and not report.get("obstructions"):
            return "no obstruction reported"
        failed_check = op.expect.get("failed_check")
        if failed_check and not any(c["id"] == failed_check and not c["passed"]
                                    for c in report.get("checks", [])):
            return f"check {failed_check} did not fail"
    if report.get("ok") != (want == 0):
        return f"report ok is {report.get('ok')}"
    return None
