"""`report.canonical_json` against the standard library's indented text, and
the pinned bytes of the files `xq` writes through it."""

import copy
import hashlib
import json
import math
import os
import random

import pytest

from xq import cli
from xq.cli import run
from xq.report import SAFE_INT, Report, canonical_json

# sha256 of the files written by `xq homotopic structures/retraction_pair.json
# --f .../retraction_pr1.json --g .../retraction_pr1_twisted.json --witness`
# and `xq check structures/cylinder_Q.json --out`, recorded with the
# standard library's indented encoder before `canonical_json` replaced it;
# the report's pin was recorded again, as the same encoder's text, when the
# report stopped recording a sample count and seed
PINNED_WITNESS = "9808ec2b6b41a7f80769b1e99a37bc157f62f03c7468f57b2332c31cf835796d"
PINNED_CHECK_Q = "510ad32ae3a21a48725ddff260f8285f66eafa01d1091e71fd47b26d332bb973"

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


def random_value(rng, depth: int, shared: list | None = None):
    """A seeded JSON value nested at most `depth` more levels.  Arrays are
    also drawn from `shared`, to which every array built is added, so one
    list object may recur at other depths and under other parents."""
    if shared is None:
        shared = []
    if shared and rng.randrange(8) == 0:
        return rng.choice(shared)
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
        shared.append([rng.randint(-2 ** 70, 2 ** 70) for _ in range(rng.randint(0, 4))])
        return shared[-1]
    items = [random_value(rng, depth - 1, shared) for _ in range(rng.randint(0, 4))]
    if kind == 5:
        shared.append(items)
        return items
    if kind == 6:
        return tuple(items)
    return {random_text(rng): v for v in items}


def test_random_corpus_matches_the_standard_library():
    rng = random.Random(41)
    recurring = 0
    for _ in range(1500):
        obj = random_value(rng, 6)
        assert canonical_json(obj) == stdlib(obj)
        recurring += any(len(d) > 1 for d in list_depths(obj).values())
    # some values hold one list object at two depths or more
    assert recurring >= 100


def list_depths(obj, depth: int = 0) -> dict[int, set[int]]:
    """The depths at which each list within obj occurs, by the list's id."""
    out: dict[int, set[int]] = {id(obj): {depth}} if isinstance(obj, list) else {}
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return out
    for v in obj:
        for k, depths in list_depths(v, depth + 1).items():
            out.setdefault(k, set()).update(depths)
    return out


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


def unsafe_report(title: str = "unsafe integers") -> Report:
    """A report holding 2^53 - 1, 2^53 and -2^53 in meta, witnesses and
    obstructions, in lists, tuples and nested dicts."""
    edge = (SAFE_INT - 1, SAFE_INT, -SAFE_INT)
    rep = Report(title)
    rep.add("c", True)
    rep.meta.update(edge=list(edge), small=[1, (2, 3)], deep={"x": [[0, edge[1]]]},
                    mixed=[edge[2], "s", edge[0]], tup=edge, lo=[0, -SAFE_INT],
                    hi=[SAFE_INT, 0], near=[1 - SAFE_INT, SAFE_INT - 1])
    rep.witnesses = [{"r": edge[0], "v": (edge[2], 5)}, {"plain": [1, 2]}]
    rep.obstructions = [{"n": edge[1]}, {"t": (True, False, None, 1.5, "s")}]
    return rep


def test_report_json_stringifies_unsafe_integers_and_leaves_the_report_alone():
    rep = unsafe_report()
    before = copy.deepcopy(rep)
    text = rep.to_json()
    assert text == stdlib(stringify_all(rep.to_json_obj()))
    obj = json.loads(text)
    assert obj["meta"]["edge"] == [SAFE_INT - 1, str(SAFE_INT), str(-SAFE_INT)]
    assert obj["meta"]["tup"] == obj["meta"]["edge"]
    assert obj["meta"]["lo"] == [0, str(-SAFE_INT)] and obj["meta"]["hi"] == [str(SAFE_INT), 0]
    assert obj["meta"]["near"] == [1 - SAFE_INT, SAFE_INT - 1]
    assert obj["meta"]["deep"] == {"x": [[0, str(SAFE_INT)]]}
    assert obj["witnesses"][0] == {"r": SAFE_INT - 1, "v": [str(-SAFE_INT), 5]}
    assert obj["obstructions"][0] == {"n": str(SAFE_INT)}
    assert rep == before
    # nothing is encoded or copied before the writer
    raw = rep.to_json_obj()
    assert raw["meta"] is rep.meta and raw["witnesses"] is rep.witnesses
    assert raw["obstructions"] is rep.obstructions
    # the structure-file writer keeps every integer a number
    assert canonical_json(raw) == stdlib(raw)
    assert rep.to_json(extra=[SAFE_INT]) == stdlib(stringify_all({**raw, "extra": [SAFE_INT]}))
    safe = Report("safe")
    safe.witnesses, safe.meta = [{"r": [1, 2]}], {"n": SAFE_INT - 1, "e": []}
    assert safe.to_json() == stdlib(safe.to_json_obj())


def test_classify_and_monoid_out_stringify_unsafe_integers(tmp_path, capsys, monkeypatch):
    """`classify --out` moves the class list and the count from meta to the
    top level, `monoid --out` adds its tables, and each writes the whole
    object through the report writer."""
    rep = unsafe_report("classify")
    classes = [{"members": [[SAFE_INT, -SAFE_INT, 0]]}]
    rep.meta.update(classes=classes, count=SAFE_INT)
    monkeypatch.setattr(cli, "classification_report", lambda **kw: rep)
    out = tmp_path / "c.json"
    assert run(["s2xs2", "classify", "--out", str(out)]) == 0
    assert "classes" not in rep.meta and "count" not in rep.meta
    assert out.read_text() == stdlib(stringify_all(
        {**rep.to_json_obj(), "classes": classes, "count": SAFE_INT}))
    assert json.loads(out.read_text())["count"] == str(SAFE_INT)

    mon = unsafe_report("monoid")
    monkeypatch.setattr(cli, "mbar_check_structure", lambda: mon)
    assert run(["s2xs2", "monoid", "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    assert len(written["elements"]) == 16 and len(written["m_table"]) == 4
    assert out.read_text() == stdlib(stringify_all(
        {**mon.to_json_obj(), **{k: written[k] for k in ("m_table", "elements", "table")}}))
    capsys.readouterr()


def test_witness_file_keeps_unsafe_integers_as_numbers(structures_dir, tmp_path, capsys):
    """r = 2^60 is a number in the witness, a structure file, and a string in
    the report."""
    with open(os.path.join(structures_dir, "retraction_pr1.json")) as fh:
        g = json.load(fh)
    g["body"]["maps"]["f3"]["images"][0] = [2 ** 60]
    g_file, witness, report = tmp_path / "g.json", tmp_path / "w.json", tmp_path / "r.json"
    g_file.write_text(json.dumps(g))
    assert run(homotopic_pr1(structures_dir, str(g_file), witness)
               + ["--out", str(report)]) == 0
    capsys.readouterr()
    text = witness.read_text()
    assert str(2 ** 60) in text and f'"{2 ** 60}"' not in text
    assert text == stdlib(json.loads(text))
    assert json.loads(text)["body"]["g"]["f3"]["images"][0] == [2 ** 60]
    assert f'"{2 ** 60}"' in report.read_text()
    assert report.read_text() == stdlib(stringify_all(json.loads(report.read_text())))
