"""`xq homotopic` binds the morphism files to the pair's complexes.

Agreement of a file's sides with the pair's is byte-level and type-exact
on the canonical JSON.  A file whose sides agree has only its maps built;
any other file is built whole, so a malformed file reports its own
positioned error before the disagreement.  The messages, exit codes and
output hashes below were taken from the version that built every file
whole, before this binding existed."""

import copy
import hashlib
import json
import os

import pytest

from xq import structfile as sf
from xq.cli import run

PAIR = "retraction_pair.json"
PR1 = "retraction_pr1.json"
TWISTED = "retraction_pr1_twisted.json"
PR2 = "retraction_pr2.json"


@pytest.fixture(autouse=True)
def _default_seed(monkeypatch):
    monkeypatch.delenv("XQ_SEED", raising=False)


def shipped(structures_dir, name):
    return os.path.join(structures_dir, name)


def read(structures_dir, name):
    with open(shipped(structures_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def agree(a, b):
    """Agreement as `xq homotopic` decides it: equal compact keys."""
    key = sf.structure_key(a)
    return key is not None and key == sf.structure_key(b)


def indent_agree(a, b):
    """The indented canonical comparison the compact keys replaced."""
    key = lambda obj: sf.serialize_structure({"kind": obj["kind"],
                                              "body": obj["body"]})
    return key(a) == key(b)


# -- agreement --------------------------------------------------------------

@pytest.mark.parametrize("a,b", [
    pytest.param(1, True, id="int-bool"),
    pytest.param(1, 1.0, id="int-float"),
    pytest.param(0, False, id="zero-false"),
    pytest.param([1, 2], [2, 1], id="list-order"),
    pytest.param({"base": [1]}, {"base": [[1]]}, id="nesting"),
    pytest.param("1", 1, id="string-int"),
])
def test_agreement_is_type_exact(a, b):
    left = {"kind": "rqc4", "body": {"x": a}}
    right = {"kind": "rqc4", "body": {"x": b}}
    assert not agree(left, right)
    assert not indent_agree(left, right)
    assert agree(left, copy.deepcopy(left))


def reverse_keys(obj):
    if isinstance(obj, dict):
        return {k: reverse_keys(obj[k]) for k in reversed(list(obj))}
    if isinstance(obj, list):
        return [reverse_keys(v) for v in obj]
    return obj


def test_key_order_does_not_matter(structures_dir):
    side = read(structures_dir, PAIR)["body"]["source"]
    flipped = reverse_keys(side)
    assert list(flipped) != list(side)
    assert agree(side, flipped)
    assert sf.structure_key(side) == sf.structure_key(flipped)


def test_only_kind_and_body_are_compared(structures_dir):
    side = read(structures_dir, PAIR)["body"]["source"]
    assert agree(side, dict(side, note="ignored"))
    assert not agree(side, dict(side, kind="xc3"))
    assert sf.structure_key({"kind": "rqc4"}) is None
    assert sf.structure_key([side]) is None
    assert not agree({"body": {}}, {"body": {}})


def _first_int_path(obj, path=()):
    if isinstance(obj, bool):
        return None
    if isinstance(obj, int):
        return path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for k, v in items:
        found = _first_int_path(v, path + (k,))
        if found is not None:
            return found
    return None


def _replaced(obj, path, value):
    obj = copy.deepcopy(obj)
    owner = obj
    for k in path[:-1]:
        owner = owner[k]
    owner[path[-1]] = value(owner[path[-1]])
    return obj


def _shipped_sides(structures_dir):
    sides = []
    for name in sorted(os.listdir(structures_dir)):
        raw = read(structures_dir, name)
        if raw["kind"] == "rqc4":
            sides.append({"kind": "rqc4", "body": raw["body"]})
            base = raw["body"].get("under", {}).get("base")
            if isinstance(base, dict):
                sides.append({"kind": "rqc4", "body": base})
        else:
            sides.extend(raw["body"][side] for side in ("source", "target"))
    return sides


def test_agreement_matches_the_indented_comparison_on_shipped_sides(
        structures_dir):
    sides = _shipped_sides(structures_dir)
    assert len(sides) >= 10
    variants = []
    for side in sides[:3]:
        at = _first_int_path(side)
        variants += [_replaced(side, at, lambda v: v + 0.0),
                     _replaced(side, at, lambda v: v == 1),
                     dict(side, body=dict(side["body"], name="renamed")),
                     reverse_keys(side)]
    everything = sides + variants
    agreeing = 0
    for a in everything:
        for b in everything:
            expected = indent_agree(a, b)
            assert agree(a, b) == expected
            assert sf.same_structure(a, b, sf.structure_bytes(b)) == expected
            agreeing += expected
    # the pair's sides recur in every morphism file, D in every target
    assert agreeing > len(everything)


# -- error paths --------------------------------------------------------------

def _write(tmp_path, name, raw):
    path = tmp_path / name
    path.write_text(sf.serialize_structure(raw))
    return str(path)


def _broken_morphism(structures_dir, tmp_path, fault):
    raw = read(structures_dir, PR1)
    if fault == "source":
        raw["body"]["source"]["body"]["q2"]["rank"] = -1
    elif fault == "target":
        raw["body"]["target"]["body"]["omega"] = [[]]
    elif fault == "maps":
        raw["body"]["maps"]["f2"]["images"][0]["base"] = [1.5]
    elif fault == "no-maps":
        del raw["body"]["maps"]
    elif fault == "foreign-source":
        raw["body"]["source"]["body"]["name"] = "something else"
    elif fault == "foreign-target":
        raw["body"]["target"]["body"]["name"] = "something else"
    elif fault == "float-rank":
        raw["body"]["source"]["body"]["q2"]["rank"] = 1.0
    elif fault == "pair":
        return shipped(structures_dir, PAIR)
    elif fault == "missing":
        return str(tmp_path / "absent.json")
    else:
        raise AssertionError(fault)
    return _write(tmp_path, f"{fault}.json", raw)


SINGLE_FAULTS = {
    "source": "$.body.source.body.q2.rank: rank must be a nonnegative integer",
    "target": "$.body.target.body.omega[0]: omega row must have 1 entries",
    "maps": "$.body.maps.f2.images[0]: bad element: base entries must be "
            "integers, found 1.5",
    "no-maps": "$.body.maps: missing required key",
    "foreign-source": "$.body.source: {label}: morphism source differs from "
                      "the pair's source",
    "foreign-target": "$.body.target: {label}: morphism target differs from "
                      "the pair's target",
    "float-rank": "$.body.source.body.q2.rank: rank must be a nonnegative "
                  "integer",
    "pair": "$.kind: {label} must be a morphism file",
    "missing": "cannot read {path}: No such file or directory",
}


def _homotopic(structures_dir, tmp_path, f, g):
    out, witness = tmp_path / "report.json", tmp_path / "witness.json"
    code = run(["homotopic", shipped(structures_dir, PAIR), "--f", f,
                "--g", g, "--out", str(out), "--witness", str(witness)])
    return code, out.exists() or witness.exists()


@pytest.mark.parametrize("label", ["--f", "--g"])
@pytest.mark.parametrize("fault", sorted(SINGLE_FAULTS))
def test_a_single_fault_keeps_its_exit_code_and_message(
        structures_dir, tmp_path, capsys, label, fault):
    bad = _broken_morphism(structures_dir, tmp_path, fault)
    good = shipped(structures_dir, PR1 if label == "--g" else TWISTED)
    f, g = (bad, good) if label == "--f" else (good, bad)
    code, written = _homotopic(structures_dir, tmp_path, f, g)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert not written
    assert err == "error: " + SINGLE_FAULTS[fault].format(label=label,
                                                          path=bad) + "\n"


@pytest.mark.parametrize("f_fault,g_fault,expected", [
    pytest.param("foreign-source", "missing", "missing", id="read-g-first"),
    pytest.param("maps", "missing", "maps", id="f-maps-before-g"),
    pytest.param("pair", "foreign-target", "pair", id="f-before-g"),
    pytest.param("foreign-source", "source", "source", id="g-build-first"),
])
def test_several_faults_report_in_file_order(structures_dir, tmp_path, capsys,
                                             f_fault, g_fault, expected):
    f = _broken_morphism(structures_dir, tmp_path, f_fault)
    g = _broken_morphism(structures_dir, tmp_path, g_fault)
    code, _ = _homotopic(structures_dir, tmp_path, f, g)
    err = capsys.readouterr().err
    bad, label = (g, "--g") if expected == g_fault else (f, "--f")
    assert code == 2
    assert err == "error: " + SINGLE_FAULTS[expected].format(label=label,
                                                             path=bad) + "\n"


def test_only_the_pair_is_built_when_the_files_agree(structures_dir, tmp_path,
                                                     monkeypatch, capsys):
    built = []
    complex_structure = sf._build_complex_structure
    monkeypatch.setattr(sf, "_build_complex_structure",
                        lambda obj, path, complexes: built.append(path)
                        or complex_structure(obj, path, complexes))
    code, _ = _homotopic(structures_dir, tmp_path,
                         shipped(structures_dir, PR1),
                         shipped(structures_dir, TWISTED))
    capsys.readouterr()
    assert code == 0
    assert built == ["$.body.source", "$.body.target"]
    built.clear()
    foreign = _broken_morphism(structures_dir, tmp_path, "foreign-target")
    code, _ = _homotopic(structures_dir, tmp_path, shipped(structures_dir, PR1),
                         foreign)
    capsys.readouterr()
    assert code == 2
    assert built == ["$.body.source", "$.body.target"] * 2


# -- byte identity ------------------------------------------------------------

def _nil2(k):
    return {"base": [k], "comm": []}


def _xc3():
    """M3 = Z --x2--> M2 = Z --0--> M1 = Z with trivial actions."""
    return {"kind": "xc3",
            "body": {"m1": {"kind": "free_nil2", "rank": 1, "names": ["a"]},
                     "m2": {"kind": "free_nil2", "rank": 1, "names": ["x"]},
                     "m3": {"kind": "free_abelian", "rank": 1, "names": ["t"]},
                     "d2": {"images": [_nil2(0)]},
                     "d3": {"images": [_nil2(2)]},
                     "action2": {"kind": "trivial"},
                     "action3": {"kind": "trivial"},
                     "under2": [], "under3": []}}


def _xc3_files(tmp_path):
    """The pair and the morphisms (id, x -> m x, t -> m t), m = 1, 2, 3."""
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    pair = write("xc3-pair.json", {"version": "1", "kind": "pair",
                                   "body": {"source": _xc3(),
                                            "target": _xc3()}})
    maps = {m: write(f"xc3-{m}.json", {
        "version": "1", "kind": "morphism",
        "body": {"source": _xc3(), "target": _xc3(),
                 "maps": {"f1": {"images": [_nil2(1)]},
                          "f2": {"images": [_nil2(m)]},
                          "f3": {"images": [[m]]}}}}) for m in (1, 2, 3)}
    return pair, maps


# name -> (exit code, sha256 of stdout, of --out, of --witness or None)
PINS = {
    "pr1-twisted": (0, "1bbd10dc73de004d06d42993ae5c7eeca0b869b2c7101423f808552212838ce0",
                    "cc96245d49bed56c259d19c5b7f58755bb90497bfd286d944e640e39301f8133",
                    "9808ec2b6b41a7f80769b1e99a37bc157f62f03c7468f57b2332c31cf835796d"),
    "pr1-pr2": (1, "58b27cd4e7523a15db1f57fbf74db0c69fc14a397b5be27ca4b0463599dc3d0f",
                "70f30902f92cb6770fe9018c2706b1c4e4097a1fd6f7f7cf49f50cf9461d63f8",
                None),
    "xc3-1-3": (0, "c9cc94c54655db5b3a292d74cd2ce4f3f41e8a4a6d72974b30120a179fd2652c",
                "f5930853bcb3d2e0cc5cbb3304fb2d3652898ec12513328177ed6b437a5cf7d8",
                "e7f1cefaef2cb51d77b3b9c9ce6a3a7d2b9ae69133b19e9a25fbca4295e55e14"),
    "xc3-1-2": (1, "f95dec219ab68e74c40413f821bcd4926e990fb0ced61d94bbacb1092dfaf33e",
                "4c487c7897a83d0ce0f412b52a4d678428bf5fbb93d925a5bd818eaf34c57242",
                None),
}


def _outputs(tmp_path, capsys, pair, f, g):
    """(exit code, stdout, --out, --witness or None) of one homotopic run,
    as bytes."""
    out, witness = tmp_path / "report.json", tmp_path / "witness.json"
    for path in (out, witness):
        if path.exists():
            path.unlink()
    code = run(["homotopic", pair, "--f", f, "--g", g, "--out", str(out),
                "--witness", str(witness)])
    return (code, capsys.readouterr().out.encode(), out.read_bytes(),
            witness.read_bytes() if witness.exists() else None)


def _pinned(outputs):
    sha = lambda data: None if data is None else hashlib.sha256(data).hexdigest()
    return (outputs[0], *map(sha, outputs[1:]))


@pytest.mark.parametrize("name", sorted(PINS))
def test_homotopic_output_is_byte_identical(structures_dir, tmp_path, capsys,
                                            name):
    if name.startswith("xc3"):
        pair, maps = _xc3_files(tmp_path)
        f, g = (maps[int(m)] for m in name.split("-")[1:])
    else:
        pair = shipped(structures_dir, PAIR)
        f = shipped(structures_dir, PR1)
        g = shipped(structures_dir, TWISTED if name.endswith("twisted") else PR2)
    assert _pinned(_outputs(tmp_path, capsys, pair, f, g)) == PINS[name]


# -- binding by typed bytes ---------------------------------------------------

def test_agreeing_files_compute_no_structure_key(structures_dir, tmp_path,
                                                 capsys, monkeypatch):
    """Sides equal to the pair's bind on their bytes alone: with the key
    comparison made to fail, the shipped run keeps its pinned bytes."""
    def no_key(obj):
        raise AssertionError("structure_key computed")
    monkeypatch.setattr(sf, "structure_key", no_key)
    got = _outputs(tmp_path, capsys, shipped(structures_dir, PAIR),
                   shipped(structures_dir, PR1), shipped(structures_dir, TWISTED))
    assert _pinned(got) == PINS["pr1-twisted"]


def _write_as_is(tmp_path, name, raw):
    """raw as JSON text in its own key order, unlike `_write`."""
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_sides_in_another_key_order_bind(structures_dir, tmp_path, capsys):
    """Bytes that differ fall back to the key comparison, which ignores key
    order: the run writes what the canonical run writes."""
    raw = read(structures_dir, PR1)
    for side in sf.SIDES:
        raw["body"][side] = reverse_keys(raw["body"][side])
        assert sf.structure_bytes(raw["body"][side]) != sf.structure_bytes(
            read(structures_dir, PR1)["body"][side])
    flipped = _write_as_is(tmp_path, "flipped-pr1.json", raw)
    pair, twisted = shipped(structures_dir, PAIR), shipped(structures_dir, TWISTED)
    canonical = _outputs(tmp_path, capsys, pair, shipped(structures_dir, PR1), twisted)
    got = _outputs(tmp_path, capsys, pair, flipped, twisted)
    assert got[0] == 0 and got[3] is not None
    assert got == canonical


@pytest.mark.parametrize("value,code", [
    pytest.param(True, 2, id="true"),
    pytest.param(1.0, 2, id="float"),
    pytest.param(1, 0, id="equal"),
])
def test_a_retyped_value_differs(structures_dir, tmp_path, capsys, value, code):
    """A body key the builder ignores holds 1 in the pair's source; f holds
    `value` there.  Both build, so only agreement tells them apart."""
    pair = read(structures_dir, PAIR)
    pair["body"]["source"]["body"]["note"] = 1
    f = read(structures_dir, PR1)
    f["body"]["source"]["body"]["note"] = value
    pair_path = _write_as_is(tmp_path, "noted-pair.json", pair)
    f_path = _write_as_is(tmp_path, "noted-f.json", f)
    got = run(["homotopic", pair_path, "--f", f_path, "--g", f_path])
    out, err = capsys.readouterr()
    assert got == code
    if code:
        assert (out, err) == ("", "error: $.body.source: --f: morphism source "
                                  "differs from the pair's source\n")


@pytest.mark.parametrize("in_pair", [False, True], ids=["f-only", "both"])
def test_an_ignored_key_at_the_nesting_bound(structures_dir, tmp_path, capsys,
                                             in_pair):
    """The text nests 4 levels down to f's source body, and the ignored key
    fills the rest of `MAX_NESTING`."""
    depth = sf.MAX_NESTING - 4
    deep = json.loads("[" * depth + "0" + "]" * depth)
    f = read(structures_dir, PR1)
    f["body"]["source"]["body"]["note"] = deep
    f_path = _write_as_is(tmp_path, "deep-f.json", f)
    pair = read(structures_dir, PAIR)
    if in_pair:
        pair["body"]["source"]["body"]["note"] = deep
    pair_path = _write_as_is(tmp_path, "deep-pair.json", pair)
    code = run(["homotopic", pair_path, "--f", f_path, "--g", f_path])
    out, err = capsys.readouterr()
    if in_pair:
        assert (code, err) == (0, "")
    else:
        assert (code, out, err) == (
            2, "", "error: $.body.source: --f: morphism source differs from "
                   "the pair's source\n")
