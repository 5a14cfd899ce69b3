"""Every kind of structure file is read and checked through one table in
`structfile`, and `xq homotopic` looks the checks of its pair's kind up
there.

The pins below were recorded before that table existed: `xq check` on a
small rqm and a small qm file, each passing and each with one entry
corrupted; and `xq homotopic` refusing an invalid --f of either kind and a
first argument that is not a pair.  JSON nested too deeply to read is a
positioned error (exit 2) and not a traceback, for every file `check` and
`homotopic` read."""

import hashlib
import json
import os

import pytest

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
            "2762cb5f2d56c4f9c429521eb578b05065db87d43b5fea8672b06825f68b740e",
            "04908c3a61c485b6fe98fd66c6ba9c195fa01840c642e9dd3f45e8c7bbe6760d"),
    "rqm-omega": ("rqm", lambda: _omega_w(_rqm()), 1,
                  "93cf7418a51b1a4f80d454d16e67e65584ddfc48cff757bdaa7afb8485864add",
                  "1a2610dd9e05f22e913a1d59fc53f6d98bcdc911d211e58cc575077f78efb7bc"),
    "qm": ("qm", _qm, 0,
           "c73789f0c7c27f7585fac7445fd1c5f639d443c51c6a655ef1d868076e457104",
           "f87c0c87e00fc1f086748ad7210147460669fa90a17030ad77cf16d248ce69f9"),
    "qm-omega": ("qm", lambda: _omega_w(_qm()), 1,
                 "5da9882c90f3cd504db79598d20ad2a2847aa7d90fe9d825178d9fc5af0b3b87",
                 "9caab45feccf9f99fad152b899f4d724a79f8ba9b245333eed613d07e75227ca"),
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
             "db3066e9bcbbe54c223f4c9a3d8313515efe973e0146d534edc5f0af5c309232",
             "22ffb2b3382b210c34b63bd4b557ffe4cdaa7253d5eb76ff59683bccec557ddf"),
    "xc3": (_corrupted_xc3_f, 1,
            "b6a595fc7a8c5ba70ba3d7671353f4ff57839240a7c123c5fe92a55ff4382ba4",
            "1af75d6bf9fed5aa6f1b7dd65d522057c4a353ec4fd4f9359716d3a52e100964"),
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
