"""Exponents of 10^18 in structure files: no path spells an exponent out,
so these files are checked and decided in well under a second."""

import json
import time

import pytest

from xq.cli import run

E = 10 ** 18


@pytest.fixture(autouse=True)
def _default_seed(monkeypatch):
    monkeypatch.delenv("XQ_SEED", raising=False)


@pytest.fixture
def timed():
    start = time.perf_counter()
    yield
    assert time.perf_counter() - start < 1.0


def write(path, kind, body):
    path.write_text(json.dumps({"version": "1", "kind": kind, "body": body}))
    return str(path)


def test_free_group_exponent_in_a_crossed_complex(tmp_path, capsys, timed):
    """M2 free on x with d3(t) = 10^18 x, a free-group element of the file."""
    body = {"m1": {"kind": "free_nil2", "rank": 1, "names": ["a"]},
            "m2": {"kind": "free", "rank": 1, "names": ["x"]},
            "m3": {"kind": "free_abelian", "rank": 1, "names": ["t"]},
            "d2": {"images": [{"base": [0], "comm": []}]},
            "d3": {"images": [[[0, E]]]},
            "action2": {"kind": "trivial"}, "action3": {"kind": "trivial"}}
    out = tmp_path / "report.json"
    assert run(["check", write(tmp_path / "xc3.json", "xc3", body), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ok"]
    assert capsys.readouterr().out.rstrip().endswith("OK")


def rqc4(d3_image):
    """Q2 free nil(2) on x, Q3 = Z<t> with d3(t) = d3_image x, omega = 0,
    Q4 = 0."""
    return {"kind": "rqc4", "body": {
        "q2": {"kind": "free_nil2", "rank": 1, "names": ["x"]},
        "q3": {"kind": "free_abelian", "rank": 1, "names": ["t"]},
        "omega": [[[0]]],
        "d3": {"images": [{"base": [d3_image], "comm": []}]},
        "q4": {"kind": "free_abelian", "rank": 0, "names": []},
        "d4": {"images": []}}}


def test_homotopic_with_source_d3_of_exponent_10_18(tmp_path, capsys, timed):
    """The identity of the complex with d3(t) = 10^18 x, and the map
    x -> (1 + 10^18) x, t -> (1 + 10^18) t: homotopic by alpha2(x) = t, so
    deciding it and re-checking its witness read alpha2 at d3(t) = 10^18 x."""
    side = rqc4(E)
    pair = write(tmp_path / "pair.json", "pair", {"source": side, "target": side})

    def morphism(name, k):
        return write(tmp_path / name, "morphism", {
            "source": side, "target": side,
            "maps": {"f2": {"images": [{"base": [k], "comm": []}]},
                     "f3": {"images": [[k]]}, "f4": {"images": []}}})
    witness = tmp_path / "witness.json"
    assert run(["homotopic", pair, "--f", morphism("f.json", 1),
                "--g", morphism("g.json", 1 + E), "--witness", str(witness)]) == 0
    found = json.loads(witness.read_text())["body"]["witness"]
    assert found == {"alpha2": [[1]], "alpha3": [[]]}
    assert run(["check", str(witness)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("OK")
