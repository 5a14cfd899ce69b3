"""Every kind of structure file is read and checked through one table in
`structfile`, and `xq homotopic` looks the checks of its pair's kind up
there.

The pins below were recorded before that table existed: `xq check` on a
small rqm and a small qm file, each passing and each with one entry
corrupted; and `xq homotopic` refusing an invalid --f of either kind and a
first argument that is not a pair.  JSON nested too deeply to read is a
positioned error (exit 2) and not a traceback, for every file `check` and
`homotopic` read.  The rqm pins and the refused --f pins were recorded
again when only qm checks kept sampling: those reports lost their
`samples`/`seed` lines and nothing else; the qm pins changed in their
pre-crossed base's checks, now decided on generators."""

import hashlib
import json
import os

import pytest

from xq import structfile as sf
from xq.cli import run

from test_homotopic_files import PAIR, PR1, TWISTED, _nil2, _xc3_files


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(autouse=True)
def _default_seed(monkeypatch):
    monkeypatch.delenv("XQ_SEED", raising=False)


def _rqm():
    """Q2 = nil(2)<x>, Q3 = Z<w>, d3(w) = x^2, omega = 0."""
    return {"q2": {"kind": "free_nil2", "rank": 1, "names": ["x"]},
            "q3": {"kind": "free_abelian", "rank": 1, "names": ["w"]},
            "d3": {"images": [_nil2(2)]},
            "omega": [[[0]]]}


def _qm():
    """The rqm above over the pre-crossed module nil(2)<x> --0--> nil(2)<a>,
    with trivial actions on Q2 and Q3."""
    return {**_rqm(),
            "m1": {"kind": "free_nil2", "rank": 1, "names": ["a"]},
            "m2": {"kind": "free_nil2", "rank": 1, "names": ["x"]},
            "d": {"images": [_nil2(0)]},
            "action": {"kind": "trivial"},
            "action3": {"kind": "trivial"}}


def _omega_w(body):
    """omega(x (x) x) = w, so d3 omega(x (x) x) = x^2 is not the trivial
    commutator (x, x)."""
    body["omega"][0][0] = [1]
    return body


# name -> (kind, body, exit code, sha256 of stdout, of --out) of
# `xq check --samples 20`
CHECK_PINS = {
    "rqm": ("rqm", _rqm, 0,
            "e2bb4bd8b9086390b0b719af564474abfc7af535cf069981f5e63b8a1498697b",
            "47f3ebde783739bdd90b10a61d5b98a1e8860f7b57be3185fe4714a582879a32"),
    "rqm-omega": ("rqm", lambda: _omega_w(_rqm()), 1,
                  "284872f4b0bc10f37f9d5eda91e789bcbbb0f6560dcbe0141f2e19f55b9d8577",
                  "75a88fb4de8b5988f09b56ea3a654b7657e96e4f1915eee5f2163726f952fc00"),
    "qm": ("qm", _qm, 0,
           "7a65d95b16aa14afcf325d32d96621f87e537ff1b01f33d0eecc5f0e224b63f5",
           "47dc71f6fe1863db12dbd1a4ecb9b2efbc6f4c2e6d2f8811102867ef9893b905"),
    "qm-omega": ("qm", lambda: _omega_w(_qm()), 1,
                 "13f6104173f81766755abefde65ae3c3c21fefb3afc6ea39a05e7bd0a0eccf61",
                 "de3441b45c01e976e626b21e81059e396843693ecdba34b949f10f00a99f3e85"),
}


@pytest.mark.parametrize("name", sorted(CHECK_PINS))
def test_check_of_a_module_is_byte_identical(tmp_path, capsys, name):
    kind, body, code, text_sha, out_sha = CHECK_PINS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"version": "1", "kind": kind, "body": body()}))
    out = tmp_path / "report.json"
    assert run(["check", str(path), "--samples", "20", "--out", str(out)]) == code
    assert (sha(capsys.readouterr().out.encode()), sha(out.read_bytes())) == (
        text_sha, out_sha)


def _corrupted_rqc4_f(structures_dir, tmp_path):
    """pr1 with f2 sending the third generator of Q2 to x instead of 1, so
    that f no longer commutes with d3 and omega."""
    with open(os.path.join(structures_dir, PR1), encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["body"]["maps"]["f2"]["images"][2] = _nil2(1)
    path = tmp_path / "rqc4-bad-f.json"
    path.write_text(json.dumps(obj))
    return (os.path.join(structures_dir, PAIR), str(path),
            os.path.join(structures_dir, TWISTED))


def _corrupted_xc3_f(structures_dir, tmp_path):
    """x -> x, t -> 2t: f3 no longer commutes with d3(t) = x^2."""
    pair, maps = _xc3_files(tmp_path)
    with open(maps[1], encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["body"]["maps"]["f3"]["images"] = [[2]]
    path = tmp_path / "xc3-bad-f.json"
    path.write_text(json.dumps(obj))
    return pair, str(path), maps[1]


# name -> (files, exit code, sha256 of stdout, of --out)
INVALID_F_PINS = {
    "rqc4": (_corrupted_rqc4_f, 1,
             "65665df7d69aa1044540ef7ef2581be54a8fd92f3beb38fa7a02f05344dce428",
             "96e58e13964e1b409567723da0b10599057a03e88aa008c42be14fc1732ada7c"),
    "xc3": (_corrupted_xc3_f, 1,
            "722690939425400614a306f0f8ed97fb90a3d2a3aa6fca45d057c7c44e51722d",
            "c422f9696c879452fe938e474504fe4fe815909011f3985f5af07a7cc6c69a1f"),
}


@pytest.mark.parametrize("name", sorted(INVALID_F_PINS))
def test_homotopic_refuses_an_invalid_f(structures_dir, tmp_path, capsys, name):
    files, code, text_sha, out_sha = INVALID_F_PINS[name]
    pair, f, g = files(structures_dir, tmp_path)
    out = tmp_path / "report.json"
    witness = tmp_path / "witness.json"
    assert run(["homotopic", pair, "--f", f, "--g", g, "--out", str(out),
                "--witness", str(witness)]) == code
    text = capsys.readouterr().out
    assert text.startswith("morphism f is not valid:\n")
    assert (sha(text.encode()), sha(out.read_bytes())) == (text_sha, out_sha)
    assert not witness.exists()


def test_homotopic_refuses_a_first_argument_that_is_not_a_pair(
        structures_dir, tmp_path, capsys):
    f = os.path.join(structures_dir, PR1)
    out = tmp_path / "report.json"
    assert run(["homotopic", f, "--f", f, "--g", f, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: $.kind: expected a pair of complexes\n")
    assert not out.exists()


DEEP = {"top": "[" * 100_000,
        "group": '{"version": "1", "kind": "group", "body": {"group": '
                 + "[" * 50_000}


@pytest.mark.parametrize("role", ["check", "pair", "f"])
@pytest.mark.parametrize("nesting", sorted(DEEP))
def test_deep_nesting_is_a_positioned_error(structures_dir, tmp_path, capsys,
                                            role, nesting):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP[nesting])
    pair = os.path.join(structures_dir, PAIR)
    f = os.path.join(structures_dir, PR1)
    argv = {"check": ["check", str(deep)],
            "pair": ["homotopic", str(deep), "--f", f, "--g", f],
            "f": ["homotopic", pair, "--f", str(deep), "--g", f]}[role]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: $: nesting too deep to read\n")


def nested_body(depth, leaf="0"):
    """A group file whose body holds `depth` more levels of arrays, so that
    the whole text nests 2 + depth deep."""
    return ('{"version": "1", "kind": "group", "body": {"deep": '
            + "[" * depth + leaf + "]" * depth + "}}")


def test_nesting_is_read_up_to_a_fixed_bound(tmp_path, capsys):
    assert sf.MAX_NESTING == 512
    raw = sf.parse_structure(nested_body(sf.MAX_NESTING - 2))
    assert raw["body"]["deep"] == json.loads("[" * (sf.MAX_NESTING - 2) + "0" + "]" * (sf.MAX_NESTING - 2))
    with pytest.raises(sf.StructureError) as deeper:
        sf.parse_structure(nested_body(sf.MAX_NESTING - 1))
    assert str(deeper.value) == "$: nesting too deep to read"
    # brackets inside strings, escaped quotes among them, are not nesting
    leaf = json.dumps('\\"' + "[{" * 2000)
    assert sf.parse_structure(nested_body(sf.MAX_NESTING - 2, leaf))
    # a syntax error the reader meets first is still a syntax error
    with pytest.raises(sf.StructureError) as syntax:
        sf.parse_structure("[" * (sf.MAX_NESTING + 10) + "x")
    assert syntax.value.line == 1 and syntax.value.col == sf.MAX_NESTING + 11
    deep = tmp_path / "deep.json"
    deep.write_text(nested_body(sf.MAX_NESTING - 1))
    assert run(["check", str(deep)]) == 2
    assert capsys.readouterr().err == "error: $: nesting too deep to read\n"


def _precrossed(action, m2_rank=1):
    """nil(2)<x> --(x -> a)--> nil(2)<a> with the given action on M2; a
    rank-2 M2 (d = a, 1) makes acting and acted groups differ."""
    return {"m1": {"kind": "free_nil2", "rank": 1, "names": ["a"]},
            "m2": {"kind": "free_nil2", "rank": m2_rank},
            "d": {"images": [_nil2(1)] + [_nil2(0)] * (m2_rank - 1)},
            "action": action}


def _qm_short_inverse_table():
    """The qm above over nil(2)<a, b>, with x -> a, whose action on Q3 has
    an inverse table with no rows: the sampled axioms act by -a, so an
    unchecked inverse table ends in an IndexError."""
    return {**_qm(), "m1": {"kind": "free_nil2", "rank": 2, "names": ["a", "b"]},
            "d": {"images": [{"base": [1, 0], "comm": [0]}]},
            "action3": {"kind": "table", "table": [[[1], [1]]], "inverse_table": []}}


ONE = _nil2(1)

# name -> (kind, body, path of the error)
ACTION_ERRORS = {
    "conjugation-between-different-groups": (
        "precrossed", lambda: _precrossed({"kind": "conjugation"}, 2),
        "$.body.action.kind"),
    "unknown-kind": ("precrossed", lambda: _precrossed({"kind": "twist"}),
                     "$.body.action.kind"),
    "table-row-count": ("precrossed", lambda: _precrossed({"table": [[ONE], [ONE]]}),
                        "$.body.action.table"),
    "table-row-length": ("precrossed", lambda: _precrossed({"table": [[ONE, ONE]]}),
                         "$.body.action.table[0]"),
    "inverse-table-row-count": ("qm", _qm_short_inverse_table,
                                "$.body.action3.inverse_table"),
    "inverse-table-row-length": (
        "precrossed", lambda: _precrossed({"table": [[ONE]], "inverse_table": [[]]}),
        "$.body.action.inverse_table[0]"),
}


@pytest.mark.parametrize("name", sorted(ACTION_ERRORS))
def test_action_reader_errors_are_positioned(tmp_path, capsys, name):
    kind, body, where = ACTION_ERRORS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"version": "1", "kind": kind, "body": body()}))
    assert run(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {where}: ")
    assert captured.err.count("\n") == 1


def test_conjugation_action_is_read_from_a_file(tmp_path, capsys):
    path = tmp_path / "conjugation.json"
    path.write_text(json.dumps({"version": "1", "kind": "precrossed",
                                "body": _precrossed({"kind": "conjugation"})}))
    assert run(["check", str(path), "--samples", "5"]) == 0
    assert "PASS action_endos_are_homs (conjugation: by construction)" in (
        capsys.readouterr().out)
