import json
import os
import shutil
import subprocess

import pytest

from xq.cli import run
from xq.structfile import load_structure, serialize_structure

from test_structure_kinds import _qm


def shipped(structures_dir, name):
    return os.path.join(structures_dir, name)


def test_check_passes_on_shipped_files(structures_dir, capsys):
    for name in sorted(os.listdir(structures_dir)):
        code = run(["check", shipped(structures_dir, name), "--samples", "30"])
        out = capsys.readouterr().out
        assert code == 0, f"{name}: {out}"
        assert out.strip().endswith("OK")
        assert "FAIL" not in out


def test_check_fails_with_exit_1(tmp_path, capsys):
    # a zero boundary with trivial action on a rank-2 nil(2) group violates
    # the Peiffer identity, so the crossed-module check must fail
    nil2 = {"kind": "free_nil2", "rank": 2, "names": ["g0", "g1"]}
    zero = {"base": [0, 0], "comm": [0]}
    raw = {"version": "1", "kind": "crossed",
           "body": {"m1": nil2, "m2": nil2,
                    "d": {"images": [zero, zero]},
                    "action": {"kind": "trivial"}}}
    path = tmp_path / "bad_crossed.json"
    path.write_text(serialize_structure(raw))
    code = run(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL peiffer_commutators_vanish" in out


def test_check_action_without_inverse_is_exit_1(tmp_path, capsys):
    # x0, x1 -> x1 is not an automorphism of Z/2 + Z, so -a does not act
    raw = {"version": "1", "kind": "precrossed",
           "body": {"m1": {"kind": "free_abelian", "rank": 1, "names": ["a"]},
                    "m2": {"kind": "fg_abelian", "rank": 2, "relations": [[2, 0]],
                           "names": ["x0", "x1"]},
                    "d": {"images": [[0], [0]]},
                    "action": {"table": [[[0, 1]], [[0, 1]]]}}}
    path = tmp_path / "bad_action.json"
    path.write_text(serialize_structure(raw))
    code = run(["check", str(path), "--samples", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert ("FAIL action_axioms (inverses and relators on generators) -- action of -a "
            "is not available: endomorphism is not invertible") in out


def test_check_nil2_word_image_with_huge_exponent(structures_dir, tmp_path, capsys):
    # f2(e) = 10^18 e breaks the square with d3, and is parsed and checked
    # without spelling 10^18 letters
    with open(shipped(structures_dir, "retraction_pr1.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["body"]["maps"]["f2"]["images"][0] = [[0, 10 ** 18]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    code = run(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL square_d3" in out


def test_check_reports_json_out(tmp_path, structures_dir, capsys):
    out_path = tmp_path / "report.json"
    code = run(["check", shipped(structures_dir, "sphere_D.json"),
                "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["ok"] is True
    assert all(c["passed"] for c in report["checks"])


def test_check_missing_file_is_exit_2(capsys):
    code = run(["check", "no/such/file.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read" in err


def test_check_syntax_error_is_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"version": "1",\n  "kind": ')
    code = run(["check", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_check_semantic_error_is_exit_2(tmp_path, capsys):
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({"version": "1", "kind": "group",
                                "body": {"group": {"kind": "fg_abelian",
                                                   "rank": -1}}}))
    code = run(["check", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "$.body.group.rank" in err


@pytest.mark.parametrize("group,where", [
    pytest.param({"kind": "free_abelian", "rank": True}, "$.body.group.rank",
                 id="bool-rank"),
    pytest.param({"kind": "cyclic", "order": True}, "$.body.group.order",
                 id="bool-order"),
    pytest.param({"kind": "fg_abelian", "rank": 2, "relations": [[0, True]]},
                 "$.body.group.relations[0]", id="bool-relation-entry"),
])
def test_check_boolean_group_header_is_exit_2(tmp_path, capsys, group, where):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"version": "1", "kind": "group",
                                "body": {"group": group}}))
    code = run(["check", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert where in err


def test_check_null_relations_read_as_absent(tmp_path, capsys):
    texts = []
    for extra in ({}, {"relations": None}):
        path = tmp_path / "group.json"
        path.write_text(json.dumps({"version": "1", "kind": "group", "body": {
            "group": {"kind": "fg_abelian", "rank": 2, **extra}}}))
        assert run(["check", str(path), "--samples", "5"]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]


@pytest.mark.parametrize("name", [None, 5])
def test_check_rqc4_name_that_is_not_a_string_is_exit_2(structures_dir, tmp_path,
                                                        capsys, name):
    with open(shipped(structures_dir, "sphere_D.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["body"]["name"] = name
    path = tmp_path / "named.json"
    path.write_text(json.dumps(raw))
    code = run(["check", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "$.body.name: name must be a string" in err


def test_usage_error_is_exit_2(capsys):
    assert run([]) == 2
    assert run(["s2xs2"]) == 2
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["classify", "count"])
@pytest.mark.parametrize("flag", ["--ab-range", "--r-bound"])
def test_negative_box_is_a_usage_error(capsys, command, flag):
    assert run(["s2xs2", command, flag, "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"xq s2xs2 {command}: error: argument {flag}: must be >= 0, got -1" in captured.err
    assert run(["s2xs2", command, flag, "x"]) == 2
    assert f"argument {flag}: invalid int value: 'x'" in capsys.readouterr().err
    # a box of width 0 is not a usage error
    assert run(["s2xs2", command, flag, "0"]) != 2
    capsys.readouterr()


def test_negative_sample_count_is_a_usage_error(structures_dir, capsys):
    path = shipped(structures_dir, "cylinder_Q.json")
    assert run(["check", path, "--samples", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "xq check: error: argument --samples: must be >= 0, got -1" in captured.err
    assert "Traceback" not in captured.err
    # no samples is not a usage error; an rqc4 file samples nothing, so its
    # report records no sample count
    assert run(["check", path, "--samples", "0"]) == 0
    assert "samples" not in capsys.readouterr().out


def test_homotopic_pair_with_witness(structures_dir, tmp_path, capsys):
    witness_path = tmp_path / "witness.json"
    code = run(["homotopic", shipped(structures_dir, "retraction_pair.json"),
                "--f", shipped(structures_dir, "retraction_pr1.json"),
                "--g", shipped(structures_dir, "retraction_pr1_twisted.json"),
                "--witness", str(witness_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out
    # the written witness is itself a checkable homotopy structure
    structure = load_structure(witness_path.read_text())
    assert structure.kind == "homotopy"
    assert structure.check().ok
    code = run(["check", str(witness_path)])
    capsys.readouterr()
    assert code == 0


def test_homotopic_obstructed_pair_is_exit_1(structures_dir, capsys):
    code = run(["homotopic", shipped(structures_dir, "retraction_pair.json"),
                "--f", shipped(structures_dir, "retraction_pr1.json"),
                "--g", shipped(structures_dir, "retraction_pr2.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "d3 = 0 in the target forces f2 = g2" in out


def test_homotopic_rejects_foreign_morphism(structures_dir, tmp_path, capsys):
    # a morphism whose embedded source/target differ from the pair is refused
    with open(shipped(structures_dir, "retraction_pr1.json")) as fh:
        raw = json.load(fh)
    raw["body"]["source"]["body"]["name"] = "something else"
    path = tmp_path / "foreign.json"
    path.write_text(serialize_structure(raw))
    code = run(["homotopic", shipped(structures_dir, "retraction_pair.json"),
                "--f", str(path),
                "--g", shipped(structures_dir, "retraction_pr2.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "differs from the pair" in err


def test_classify_deterministic_and_json(tmp_path, capsys):
    out1 = tmp_path / "c1.json"
    args = ["s2xs2", "classify", "--ab-range", "2", "--r-bound", "2",
            "--out", str(out1)]
    assert run(args) == 0
    text1 = capsys.readouterr().out
    out2 = tmp_path / "c2.json"
    assert run(args[:-1] + [str(out2)]) == 0
    text2 = capsys.readouterr().out
    assert text1 == text2
    assert out1.read_text() == out2.read_text()
    report = json.loads(out1.read_text())
    # the class list and the count are written once, at the top level
    assert "classes" not in report["meta"] and "count" not in report["meta"]
    assert report["count"] == 16
    assert sorted(tuple(c["ab"]) for c in report["classes"]) == [(0, 1), (1, 0)]
    assert report["ok"] is True
    assert report["witnesses"]


def test_monoid_command(tmp_path, capsys):
    out_path = tmp_path / "monoid.json"
    code = run(["s2xs2", "monoid", "--table", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out
    assert "composition table" in out
    report = json.loads(out_path.read_text())
    assert len(report["elements"]) == 16
    assert len(report["table"]) == 16
    # spot check one frozen composition: (T,(1,0)) o (T,(0,0)) = (I,(1,0))
    i = report["elements"].index("(T,(1,0))")
    j = report["elements"].index("(T,(0,0))")
    assert report["table"][i][j] == "(I,(1,0))"


def test_count_command(capsys):
    code = run(["s2xs2", "count"])
    out = capsys.readouterr().out
    assert code == 0
    assert "diagonal-fixing self-map classes of S^2 x S^2: 16" in out


@pytest.mark.skipif(shutil.which("xq") is None,
                    reason="console script not installed")
def test_console_script_smoke(structures_dir):
    proc = subprocess.run(["xq", "check",
                           shipped(structures_dir, "sphere_D.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("OK")


@pytest.mark.parametrize("bad", [pytest.param(1.5, id="float"),
                                 pytest.param("1", id="string"),
                                 pytest.param(True, id="bool")])
def test_check_non_integer_element_entry_is_exit_2(structures_dir, tmp_path,
                                                   capsys, bad):
    with open(shipped(structures_dir, "retraction_pr1.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    f2 = raw["body"]["maps"]["f2"]["images"]
    assert f2[0]["base"] == [1]
    f2[0]["base"] = [bad]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    code = run(["check", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "$.body.maps.f2.images[0]" in err
    assert "integers" in err


def xc3_body(m2_rank, d3_image):
    """A 3-complex with M2 free of the given rank on x, y, ... and
    d3(t) = d3_image as word pairs."""
    return {"m1": {"kind": "free_nil2", "rank": 1, "names": ["a"]},
            "m2": {"kind": "free", "rank": m2_rank, "names": list("xy"[:m2_rank])},
            "m3": {"kind": "free_abelian", "rank": 1, "names": ["t"]},
            "d2": {"images": [{"base": [0], "comm": []}] * m2_rank},
            "d3": {"images": [d3_image]},
            "action2": {"kind": "trivial"}, "action3": {"kind": "trivial"},
            "under2": [], "under3": []}


@pytest.mark.parametrize("bad", [pytest.param([[0, True]], id="bool-exponent"),
                                 pytest.param([[7, 1]], id="generator-out-of-range"),
                                 pytest.param([["a", 1]], id="string-generator")])
def test_check_bad_word_pair_is_exit_2(tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": "1", "kind": "xc3",
                                "body": xc3_body(1, bad)}))
    code = run(["check", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "$.body.d3.images[0]" in err


def test_homotopic_with_noncentral_d3_is_exit_2(tmp_path, capsys):
    cx = {"kind": "xc3", "body": xc3_body(2, [[0, 1]])}
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"version": "1", "kind": "pair",
                                "body": {"source": cx, "target": cx}}))
    ident = tmp_path / "id.json"
    ident.write_text(json.dumps({
        "version": "1", "kind": "morphism",
        "body": {"source": cx, "target": cx,
                 "maps": {"f1": {"images": [{"base": [1], "comm": []}]},
                          "f2": {"images": [[[0, 1]], [[1, 1]]]},
                          "f3": {"images": [[1]]}}}}))
    code = run(["homotopic", str(pair), "--f", str(ident), "--g", str(ident)])
    err = capsys.readouterr().err
    assert code == 2
    assert "not central at generator t" in err


def qm_file(tmp_path):
    path = tmp_path / "qm.json"
    path.write_text(serialize_structure({"version": "1", "kind": "qm", "body": _qm()}))
    return str(path)


def test_check_qm_file_reads_the_seed_from_xq_seed(tmp_path, monkeypatch, capsys):
    # only a qm file's checks sample, so only its report records a seed
    path = qm_file(tmp_path)
    monkeypatch.setenv("XQ_SEED", "7")
    out = tmp_path / "report.json"
    assert run(["check", path, "--samples", "5", "--out", str(out)]) == 0
    assert "  samples: 5\n  seed: 7\n" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["meta"] == {"samples": 5, "seed": 7}
    assert [c["id"] for c in report["checks"] if c.get("basis") == "sampled"] == [
        "axiom1_nil2", "axiom2_d3_omega_is_w", "axiom3_action_formula",
        "axiom4_q3_commutators"]


def test_check_samples_0_draws_no_samples(tmp_path, monkeypatch, capsys):
    # d: free nil(2) -> free group has its nil(2) laws decided on generator
    # triples, and the pre-crossed checks on generators, at any count; a qm
    # file over nil(2)<x> samples its axioms 1 to 3 at the caller's count
    import xq.groups

    draws = []
    element = xq.groups.FreeNil2Group.random_element
    monkeypatch.setattr(xq.groups.FreeNil2Group, "random_element",
                        lambda *a, **k: draws.append(1) or element(*a, **k))
    raw = {"version": "1", "kind": "precrossed",
           "body": {"m1": {"kind": "free", "rank": 2},
                    "m2": {"kind": "free_nil2", "rank": 2},
                    "d": {"images": [[], []]},
                    "action": {"kind": "trivial"}}}
    path = tmp_path / "pre.json"
    path.write_text(serialize_structure(raw))
    out = tmp_path / "report.json"
    assert run(["check", str(path), "--samples", "2", "--out", str(out)]) == 0
    checks = {c["id"]: c.get("basis") for c in json.loads(out.read_text())["checks"]}
    assert checks["d_is_homomorphism"] == "proved"
    assert draws == []
    assert run(["check", qm_file(tmp_path), "--samples", "0"]) == 0
    assert draws == []
    assert run(["check", qm_file(tmp_path), "--samples", "2"]) == 0
    assert len(draws) == 2 * 3 + 2 * 2 + 2  # axiom 1, axiom 2, axiom 3
