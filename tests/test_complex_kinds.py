"""Both kinds of complex, reduced quadratic 4-complexes (rqc4) and crossed
3-complexes (xc3), are read and written through one table in `structfile`.

The pins below were recorded before that table existed: the output of
`xq check` on a pair, a morphism and a homotopy file of each kind, the
positioned errors for a wrong witness length, a kind mismatch and a
missing map, the fault reported first when a file has two, and the tables
of `xq s2xs2 monoid`.  The check pins of the rqc4 morphism and of the xc3
pair and morphism were recorded again when the crossed checks moved to
generators: the reports lost their `samples`/`seed` lines, and the xc3
pair's crossed checks their sampled ids and notes; nothing else changed."""

import hashlib
import json
import os

import pytest

import xq.cli
import xq.structfile
from xq.cli import run

from test_homotopic_files import PAIR, PR1, TWISTED, _xc3, _xc3_files


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(autouse=True)
def _default_seed(monkeypatch):
    monkeypatch.delenv("XQ_SEED", raising=False)


@pytest.fixture
def files(structures_dir, tmp_path, capsys):
    """name -> path of a pair, a morphism and a homotopy file of each kind.
    The homotopy files are the witnesses `xq homotopic` writes."""
    xc3_pair, xc3_maps = _xc3_files(tmp_path)
    rqc4_pair = os.path.join(structures_dir, PAIR)
    paths = {"rqc4-pair": rqc4_pair,
             "rqc4-morphism": os.path.join(structures_dir, TWISTED),
             "xc3-pair": xc3_pair,
             "xc3-morphism": xc3_maps[2]}
    for kind, pair, f, g in (
            ("rqc4", rqc4_pair, os.path.join(structures_dir, PR1),
             os.path.join(structures_dir, TWISTED)),
            ("xc3", xc3_pair, xc3_maps[1], xc3_maps[3])):
        witness = tmp_path / f"{kind}-homotopy.json"
        assert run(["homotopic", pair, "--f", f, "--g", g,
                    "--witness", str(witness)]) == 0
        paths[f"{kind}-homotopy"] = str(witness)
    capsys.readouterr()
    return paths


# name -> (sha256 of stdout, of --out) of `xq check --samples 20`
CHECK_PINS = {
    "rqc4-pair": ("e00c7c1289f74c5b11c9e94b3a45e08a80264775623b5a23114e52098fd44510",
                  "63801365d0554f25f1c9c4bedadcb8dae0d52c23b03f627edd000c73ee15a234"),
    "rqc4-morphism": ("2da2f309025750ec28b4a609a2657a6e28012118964e6d7c511e113aa0927f4f",
                      "cfc970e2ccf1ed5d4a7e5cd08f226d02fba3e895f87da4c193b4fd9bb6cf21c7"),
    "rqc4-homotopy": ("26b46c112c892c3a3fc11b868423424f6468d595b8757d1105281fb330c1351f",
                      "091089c4ba9374c2826cfd6d3442f5413edc8bee864c2e67ce15ffbf24a3cb1f"),
    "xc3-pair": ("6e694f65b7205cf5abc4ff04bace7eddf08bee2bbc3cffb76c313a6a5f6b3a44",
                 "ec8e76b4d201fb749aa3b8fa57a050edbfa2d74983220e08c00d4b4b039adcfd"),
    "xc3-morphism": ("39e9d9bb29067f6732ccd7f3f2e62a5f8acd31a92a81e4c8fd1442dfde633e93",
                     "32aae04e0d4411600cd151245916b7d726084eb262f0be1f5705a166a73a628e"),
    "xc3-homotopy": ("3ec2278e476c6c46c0c93f2f53358983bbaad36f6c022b58eda0951546ce4e4f",
                     "6ac937bef0543057c9ca06e6e149174adadcd136ebdba355297ef8496de97642"),
}


@pytest.mark.parametrize("name", sorted(CHECK_PINS))
def test_check_output_is_byte_identical(files, tmp_path, capsys, name):
    out = tmp_path / "report.json"
    code = run(["check", files[name], "--samples", "20", "--out", str(out)])
    text = capsys.readouterr().out.encode()
    assert code == 0
    assert (sha(text), sha(out.read_bytes())) == CHECK_PINS[name]


def _without(obj, *keys):
    """obj with the key at the end of the path `keys` deleted."""
    owner = obj
    for key in keys[:-1]:
        owner = owner[key]
    del owner[keys[-1]]
    return obj


def _shortened(obj, name):
    obj["body"]["witness"][name] = obj["body"]["witness"][name][:-1]
    return obj


def _bad_element(obj, name):
    """The witness list `name` with a float in its first value."""
    values = obj["body"]["witness"][name]
    values[0] = [1.5] if isinstance(values[0], list) else {"base": [1.5]}
    return obj


def _retargeted(obj, side):
    obj["body"]["target"] = side
    return obj


def _rqc4_side(structures_dir):
    with open(os.path.join(structures_dir, PAIR), encoding="utf-8") as fh:
        return json.load(fh)["body"]["target"]


# name -> (file to corrupt, corruption, positioned error)
FAULTS = {
    "alpha-length": ("xc3-homotopy", lambda o, d: _shortened(o, "alpha"),
                     "$.body.witness.alpha: alpha needs 1 values"),
    "alpha2-length": ("rqc4-homotopy", lambda o, d: _shortened(o, "alpha2"),
                      "$.body.witness.alpha2: alpha2 needs 3 values"),
    "alpha3-length": ("rqc4-homotopy", lambda o, d: _shortened(o, "alpha3"),
                      "$.body.witness.alpha3: alpha3 needs 10 values"),
    "pair-kinds": ("rqc4-pair", lambda o, d: _retargeted(o, _xc3()),
                   "$.body.target.kind: source is rqc4 but target is xc3"),
    "morphism-kinds": ("rqc4-morphism", lambda o, d: _retargeted(o, _xc3()),
                       "$.body.target.kind: source is rqc4 but target is xc3"),
    "homotopy-kinds": ("xc3-homotopy",
                       lambda o, d: _retargeted(o, _rqc4_side(d)),
                       "$.body.target.kind: source is xc3 but target is rqc4"),
    "xc3-no-f1": ("xc3-morphism",
                  lambda o, d: _without(o, "body", "maps", "f1"),
                  "$.body.maps.f1: missing required key"),
    "rqc4-no-f4": ("rqc4-morphism",
                   lambda o, d: _without(o, "body", "maps", "f4"),
                   "$.body.maps.f4: missing required key"),
    "xc3-homotopy-no-g-f1": ("xc3-homotopy",
                             lambda o, d: _without(o, "body", "g", "f1"),
                             "$.body.g.f1: missing required key"),
    "unhashable-kind": ("rqc4-pair",
                        lambda o, d: _retargeted(o, dict(_xc3(),
                                                         kind=["xc3"])),
                        "$.body.target.kind: expected an rqc4 or xc3 structure "
                        "here, found ['xc3']"),
    # a file with two faults reports the one the reader meets first
    "kinds-before-maps": ("rqc4-morphism",
                          lambda o, d: _retargeted(
                              _without(o, "body", "maps"), _xc3()),
                          "$.body.target.kind: source is rqc4 but target "
                          "is xc3"),
    "lengths-before-values": ("rqc4-homotopy",
                              lambda o, d: _shortened(
                                  _bad_element(o, "alpha2"), "alpha3"),
                              "$.body.witness.alpha3: alpha3 needs 10 values"),
    "values-in-order": ("rqc4-homotopy",
                        lambda o, d: _bad_element(_bad_element(o, "alpha3"),
                                                  "alpha2"),
                        "$.body.witness.alpha2[0]: bad element: coordinate "
                        "entries must be integers, found 1.5"),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_a_malformed_file_reports_its_positioned_error(
        files, structures_dir, tmp_path, capsys, name):
    source, corrupt, expected = FAULTS[name]
    with open(files[source], encoding="utf-8") as fh:
        raw = corrupt(json.load(fh), structures_dir)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "report.json"
    code = run(["check", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert not out.exists()
    assert captured.err == f"error: {expected}\n"


def test_checks_are_looked_up_when_called(files, monkeypatch, capsys):
    """A replaced module binding is the one called, as the benchmark's
    tracer needs: it replaces the checks by name in every module."""
    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def replacement(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, replacement)

    spy(xq.structfile, "qcm_check")
    spy(xq.structfile, "xc3_morphism_check")
    spy(xq.structfile, "verify_xc3_homotopy")
    for kind, check in (("rqc4", "qcm_check"), ("xc3", "xc3_morphism_check")):
        morphism = files[f"{kind}-morphism"]
        assert run(["homotopic", files[f"{kind}-pair"], "--f", morphism,
                    "--g", morphism]) == 0
        assert calls == [check] * 2
        calls.clear()
    assert run(["check", files["xc3-homotopy"]]) == 0
    assert calls == ["verify_xc3_homotopy"]
    capsys.readouterr()


def test_monoid_output_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "monoid.json"
    assert run(["s2xs2", "monoid", "--table", "--out", str(out)]) == 0
    text = capsys.readouterr().out.encode()
    assert (sha(text), sha(out.read_bytes())) == (
        "e852822ec85a2b592036b24add5d169fb0d0679241db0a90b2748db87dd735de",
        "804f984c8f1c4463e0ad881c64e009f01864fab07647a1b4e136718975d685af")
