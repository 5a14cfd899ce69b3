"""The gates on what `xq` writes: the count, the classification files at
the boxes 8/60, 20/200 and 200/2000, output that does not depend on hash
order, and files that are the standard library's sorted, indented JSON.

The commands run in this process through `xq.cli.run`; only the hash-seed
comparison starts a pair of interpreters, as the seed is fixed when an
interpreter starts."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import xq
from xq.cli import run

BOXES = {"c.json": (8, 60), "c20.json": (20, 200), "c200.json": (200, 2000)}


@pytest.fixture(scope="module")
def written(tmp_path_factory, structures_dir):
    """The directory holding the classification at each of `BOXES` and the
    witness of the shipped pair pr1 ~ pr1_twisted as w.json."""
    work = tmp_path_factory.mktemp("written")
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.delenv("XQ_SEED", raising=False)
        for name, (ab_range, r_bound) in BOXES.items():
            assert run(["s2xs2", "classify", "--ab-range", str(ab_range), "--r-bound",
                        str(r_bound), "--out", str(work / name)]) == 0
        pair, f, g = (os.path.join(structures_dir, name) for name in (
            "retraction_pair.json", "retraction_pr1.json", "retraction_pr1_twisted.json"))
        assert run(["homotopic", pair, "--f", f, "--g", g,
                    "--witness", str(work / "w.json")]) == 0
        assert run(["check", str(work / "w.json")]) == 0
    return work


def load(work, name):
    with open(work / name, encoding="utf-8") as fh:
        return json.load(fh)


def test_the_count_is_16_with_the_structure_of_q_checked(tmp_path, capsys):
    """The count is the classification report's, structure checks included."""
    assert run(["s2xs2", "count", "--out", str(tmp_path / "n.json")]) == 0
    capsys.readouterr()
    out = load(tmp_path, "n.json")
    assert out["ok"] and out["meta"].get("count") == 16
    assert [c["passed"] for c in out["checks"] if c["id"] == "structure_Q_valid"] == [True]


def test_each_r_family_at_the_20_200_box_has_401_members(written):
    """Each r-family is certified once, so its 401 members at this box are
    covered without a check or verification of their own."""
    out = load(written, "c20.json")
    assert out["ok"] and out["count"] == 16
    assert [len(c["members"]) for c in out["classes"]] == [401, 401]


def test_the_200_2000_file_is_the_20_200_file_and_its_members(written):
    """The witnesses are one entry per pair of r-families, the same at every
    box, so the 200/2000 file is the 20/200 one plus the member tags (0.50
    MB), and the class lists and the count are written once, at the top
    level, not again under meta."""
    out, small = load(written, "c200.json"), load(written, "c20.json")
    assert os.path.getsize(written / "c200.json") < 550_000
    classes = out["classes"]
    assert out["ok"] and out["count"] == 16
    assert [len(c["members"]) for c in classes] == [4001, 4001]
    assert not {"classes", "count"} & out["meta"].keys()
    pairs = {(tuple(c["representative"][:2]), tuple(m[:2]))
             for c in classes for m in c["members"]}
    families = [tuple(map(tuple, w["families"])) for w in out["witnesses"]]
    assert len(families) == len(pairs) and set(families) == pairs
    for report in (out, small):
        for c in report["classes"]:
            c["members"] = []
        report["meta"].update(ab_range=None, r_bound=None, retractions=None)
    assert out == small


@pytest.mark.parametrize("name", ["w.json", *BOXES])
def test_written_files_are_the_standard_library_dump(written, name):
    """xq writes the standard library's sorted, indented JSON text itself:
    the witness and the classifications dumped again through json are the
    same bytes.  c200.json, the largest, takes every path of the writer:
    arrays of ints and of int arrays in one join, and arrays of other values
    element by element."""
    text = (written / name).read_text(encoding="utf-8")
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text


def test_the_classification_does_not_depend_on_hash_order(tmp_path):
    """The output must not depend on hash order, as it would if a set or a
    hash-ordered container were ever iterated into it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(xq.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "XQ_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outs = []
    for seed in ("0", "1"):
        out = tmp_path / f"h{seed}.json"
        subprocess.run([sys.executable, "-m", "xq.cli", "s2xs2", "classify", "--ab-range", "3",
                        "--r-bound", "20", "--out", str(out)], check=True,
                       env=dict(env, PYTHONHASHSEED=seed), stdout=subprocess.DEVNULL)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
