"""`report.canonical_json` against the standard library's indented text, and
the pinned bytes of the files `xq` writes through it."""

import hashlib
import json
import math
import os
import random

import pytest

from xq.cli import run
from xq.report import SAFE_INT, Report, canonical_json

# sha256 of the files written by `xq homotopic structures/retraction_pair.json
# --f .../retraction_pr1.json --g .../retraction_pr1_twisted.json --witness`
# and `xq check structures/cylinder_Q.json --out`, recorded with the
# standard library's indented encoder before `canonical_json` replaced it
PINNED_WITNESS = "9808ec2b6b41a7f80769b1e99a37bc157f62f03c7468f57b2332c31cf835796d"
PINNED_CHECK_Q = "fe35649b2b4694cfa508c896838653adb7871416eee9747d0ae5527f6c11719f"

# quote, backslash, control, non-ASCII and astral characters among plain ones
CHARS = "aZ0 \"\\/\b\f\n\r\t\x00\x1f\x7fé €\U0001f600"
FLOATS = (0.0, -0.0, 1.5, -2.25e-7, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf)


def stdlib(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def homotopic_pr1(structures_dir, g: str, witness) -> list[str]:
    """argv of `homotopic` on the shipped pair, f = pr1 and the given g."""
    pair, f = (os.path.join(structures_dir, name)
               for name in ("retraction_pair.json", "retraction_pr1.json"))
    return ["homotopic", pair, "--f", f, "--g", g, "--witness", str(witness)]


def random_text(rng) -> str:
    return "".join(rng.choice(CHARS) for _ in range(rng.randint(0, 5)))


def random_value(rng, depth: int):
    """A seeded JSON value nested at most `depth` more levels."""
    kind = rng.randrange(9 if depth > 0 else 5)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice((rng.randint(-2 ** 70, 2 ** 70), rng.randint(-9, 9), 2 ** 53, -2 ** 53))
    if kind == 2:
        return rng.choice((True, False, None))
    if kind == 3:
        return rng.choice(FLOATS)
    if kind == 4:  # a list of plain ints, possibly empty
        return [rng.randint(-2 ** 70, 2 ** 70) for _ in range(rng.randint(0, 4))]
    items = [random_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    return {random_text(rng): v for v in items}


def test_random_corpus_matches_the_standard_library():
    rng = random.Random(41)
    for _ in range(1500):
        obj = random_value(rng, 6)
        assert canonical_json(obj) == stdlib(obj)


def test_shipped_structures_match_the_standard_library(structures_dir):
    names = sorted(os.listdir(structures_dir))
    assert len(names) == 6
    for name in names:
        with open(os.path.join(structures_dir, name)) as fh:
            text = fh.read()
        obj = json.loads(text)
        assert canonical_json(obj) == stdlib(obj) == text, name


@pytest.mark.parametrize("obj", [{"a": {1, 2}}, {1: "a"}, {"a": [{"b": {2: 3}}]},
                                 [object()], b"bytes"],
                         ids=["set", "int-key", "nested-int-key", "object", "bytes"])
def test_other_types_raise_type_error(obj):
    with pytest.raises(TypeError):
        canonical_json(obj)


def test_written_files_keep_their_pinned_bytes(structures_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("XQ_SEED", raising=False)
    witness, report = tmp_path / "w.json", tmp_path / "q.json"
    g = os.path.join(structures_dir, "retraction_pr1_twisted.json")
    assert run(homotopic_pr1(structures_dir, g, witness)) == 0
    assert run(["check", os.path.join(structures_dir, "cylinder_Q.json"),
                "--out", str(report)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(witness.read_bytes()).hexdigest() == PINNED_WITNESS
    assert hashlib.sha256(report.read_bytes()).hexdigest() == PINNED_CHECK_Q


def nested_text(depth: int, indent: int) -> str:
    """The indented text of `depth` nested lists around 0, the outer one
    starting on a line indented by `indent` spaces."""
    text = "0"
    for level in range(depth, 0, -1):
        pad = " " * (indent + 2 * level)
        text = f"[\n{pad}{text}\n{pad[:-2]}]"
    return text


def test_g_file_nested_as_deep_as_it_can_be_read_is_echoed(structures_dir, tmp_path, capsys):
    """An unknown key of `g`'s maps is copied into the witness file; at the
    deepest nesting `homotopic` can read, the witness is still written."""
    with open(os.path.join(structures_dir, "retraction_pr1_twisted.json")) as fh:
        g = json.load(fh)
    g["body"]["maps"]["extra"] = {"deep": "HOLE"}
    g_file, witness = tmp_path / "g.json", tmp_path / "w.json"

    def homotopic(depth):
        g_file.write_text(json.dumps(g).replace('"HOLE"', "[" * depth + "0" + "]" * depth))
        code = run(homotopic_pr1(structures_dir, str(g_file), witness))
        return code, capsys.readouterr().err

    read, too_deep = (0, ""), (2, "error: $: nesting too deep to read\n")
    assert homotopic(0) == read
    shallow = witness.read_text()
    assert shallow == stdlib(json.loads(shallow))
    lo, hi = 0, 5000  # homotopic reads depth lo, and not depth hi
    assert homotopic(hi) == too_deep
    while hi - lo > 1:
        mid = (lo + hi) // 2
        outcome = homotopic(mid)
        assert outcome in (read, too_deep)
        lo, hi = (mid, hi) if outcome == read else (lo, mid)
    assert homotopic(lo) == read
    line = next(s for s in shallow.splitlines() if s.endswith('"deep": 0'))
    indent = len(line) - len(line.lstrip())
    assert witness.read_text() == shallow.replace('"deep": 0', '"deep": ' + nested_text(lo, indent))
    assert lo > 100


def stringify_all(obj):
    """The unsafe-integer encoding as a full copy: every list, tuple and
    dict rebuilt, integers outside the 53-bit safe range as strings."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return obj if -SAFE_INT < obj < SAFE_INT else str(obj)
    if isinstance(obj, (list, tuple)):
        return [stringify_all(x) for x in obj]
    if isinstance(obj, dict):
        return {k: stringify_all(v) for k, v in obj.items()}
    return obj


def test_report_json_stringifies_unsafe_integers_and_copies_only_their_containers():
    edge = (SAFE_INT - 1, SAFE_INT, -SAFE_INT)
    rep = Report("unsafe integers")
    rep.add("c", True)
    rep.meta.update(edge=list(edge), small=[1, (2, 3)], deep={"x": [[0, edge[1]]]})
    rep.witnesses = [{"r": edge[0], "v": (edge[2], 5)}, {"plain": [1, 2]}]
    rep.obstructions = [{"n": edge[1]}, {"t": (True, False, None, 1.5, "s")}]
    before = stringify_all(rep.to_json_obj())
    obj = rep.to_json_obj()
    assert canonical_json(obj) == stdlib(before)
    assert obj["meta"]["edge"] == [SAFE_INT - 1, str(SAFE_INT), str(-SAFE_INT)]
    assert obj["witnesses"][0]["v"] == [str(-SAFE_INT), 5]
    # what holds no unsafe integer is the report's own object, and the
    # report itself is unchanged
    assert obj["meta"]["small"] is rep.meta["small"]
    assert obj["witnesses"][1] is rep.witnesses[1]
    assert obj["obstructions"][1] is rep.obstructions[1]
    assert rep.meta["edge"] == list(edge) and rep.obstructions[0]["n"] == SAFE_INT
    safe = Report("safe")
    safe.witnesses, safe.meta = [{"r": [1, 2]}], {"n": SAFE_INT - 1}
    out = safe.to_json_obj()
    assert out["witnesses"] is safe.witnesses and out["meta"] is safe.meta
