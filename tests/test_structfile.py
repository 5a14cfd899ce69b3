import json
import os

import pytest

from xq import structfile as sf
from xq.cli import run
from xq.groups import CyclicGroup, FgAbelianGroup, FreeNil2Group, GroupHom, group_from_json
from xq.quadratic import (QCMorphism, ReducedQuadraticComplex4, ReducedQuadraticModule,
                          rq_homotopy_decision)
from xq.sphere import build_cylinder_Q, build_sphere_D, retraction_candidate

from shipped import shipped_structures


def test_shipped_files_are_fresh(structures_dir):
    expected = shipped_structures()
    on_disk = sorted(os.listdir(structures_dir))
    assert on_disk == sorted(expected)
    for name, obj in expected.items():
        with open(os.path.join(structures_dir, name), encoding="utf-8") as fh:
            assert fh.read() == sf.serialize_structure(obj), \
                f"{name} is stale; regenerate with PYTHONPATH=src python3 tests/shipped.py"


def test_shipped_files_load_and_pass_checks(structures_dir):
    for name in sorted(os.listdir(structures_dir)):
        with open(os.path.join(structures_dir, name), encoding="utf-8") as fh:
            structure = sf.load_structure(fh.read())
        rep = structure.check(samples=40, seed=0)
        assert rep.ok, f"{name}: {rep.text()}"


def test_rqc4_round_trip_is_byte_identical():
    d = build_sphere_D()
    q = build_cylinder_Q(d)
    for cx in (d, q):
        text = sf.serialize_structure(sf.rqc4_structure(cx))
        rebuilt = sf.load_structure(text).value
        assert sf.serialize_structure(sf.rqc4_structure(rebuilt)) == text


def test_morphism_round_trip_is_byte_identical():
    d = build_sphere_D()
    q = build_cylinder_Q(d)
    m = retraction_candidate(q, d, 1, 0, 1)
    text = sf.serialize_structure(sf.morphism_structure(m))
    rebuilt = sf.load_structure(text).value
    assert isinstance(rebuilt, QCMorphism)
    assert sf.serialize_structure(sf.morphism_structure(rebuilt)) == text


def test_self_under_reference_round_trips():
    d = build_sphere_D()
    raw = sf.rqc4_structure(d)
    assert raw["body"]["under"]["base"] == "self"
    rebuilt = sf.load_structure(sf.serialize_structure(raw)).value
    assert rebuilt.under.base is rebuilt


def test_syntax_error_has_line_and_column():
    with pytest.raises(sf.StructureError) as exc:
        sf.parse_structure('{"version": "1",\n  "kind": ')
    assert exc.value.line == 2
    assert exc.value.col is not None
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("text,path_fragment", [
    ('[]', "$"),
    ('{"kind": "group", "body": {}}', "$.version"),
    ('{"version": "2", "kind": "group", "body": {}}', "$.version"),
    ('{"version": "1", "kind": "blob", "body": {}}', "$.kind"),
    ('{"version": "1", "kind": "group"}', "$.body"),
    ('{"version": "1", "kind": "group", "body": []}', "$.body"),
])
def test_top_level_semantic_errors(text, path_fragment):
    with pytest.raises(sf.StructureError) as exc:
        sf.parse_structure(text)
    assert exc.value.path == path_fragment or \
        str(exc.value).startswith(path_fragment)


def test_negative_rank_reports_exact_path():
    raw = {"version": "1", "kind": "group",
           "body": {"group": {"kind": "fg_abelian", "rank": -1}}}
    with pytest.raises(sf.StructureError) as exc:
        sf.build_structure(raw)
    assert exc.value.path == "$.body.group.rank"
    assert "nonnegative" in str(exc.value)


def test_bad_relation_row_path():
    raw = {"version": "1", "kind": "group",
           "body": {"group": {"kind": "fg_abelian", "rank": 2,
                              "relations": [[1, 0], [1]]}}}
    with pytest.raises(sf.StructureError) as exc:
        sf.build_structure(raw)
    assert exc.value.path == "$.body.group.relations[1]"


@pytest.mark.parametrize("group,path", [
    ({"kind": "free_abelian", "rank": True}, "$.body.group.rank"),
    ({"kind": "cyclic", "order": True}, "$.body.group.order"),
    ({"kind": "fg_abelian", "rank": 1, "relations": [[True]]},
     "$.body.group.relations[0]"),
])
def test_boolean_group_header_entries_are_rejected(group, path):
    raw = {"version": "1", "kind": "group", "body": {"group": group}}
    with pytest.raises(sf.StructureError) as exc:
        sf.build_structure(raw)
    assert exc.value.path == path


@pytest.mark.parametrize("group", [
    {"kind": "free_abelian", "rank": 2, "relations": [[2, 0]]},
    {"kind": "cyclic", "order": 3, "relations": [[3]]},
    {"kind": "cyclic", "order": 3, "relations": [["x"]]},
    {"kind": "free_nil2", "rank": 1, "relations": [[1]]},
    {"kind": "free", "rank": 1, "relations": [[1]]},
])
def test_relations_on_a_group_kind_that_takes_none_are_rejected(group, tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"version": "1", "kind": "group", "body": {"group": group}}))
    assert run(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: $.body.group.relations: a {group['kind']} group "
                            "takes no relations; fg_abelian ones do\n")
    # null and [] read as absent
    for rels in (None, []):
        raw = {"version": "1", "kind": "group", "body": {"group": {**group, "relations": rels}}}
        without = {k: v for k, v in group.items() if k != "relations"}
        assert sf.build_structure(raw).value == group_from_json(without)


def test_wrong_image_count_path():
    d = build_sphere_D()
    raw = sf.rqc4_structure(d)
    raw["body"]["d3"]["images"] = []
    with pytest.raises(sf.StructureError) as exc:
        sf.build_structure(raw)
    assert exc.value.path == "$.body.d3.images"
    assert "1 images" in str(exc.value)


def test_omega_shape_path():
    d = build_sphere_D()
    raw = sf.rqc4_structure(d)
    raw["body"]["omega"] = [[[0]], [[0]]]
    with pytest.raises(sf.StructureError) as exc:
        sf.build_structure(raw)
    assert exc.value.path == "$.body.omega"


XC3_BODY = {
    "m1": {"kind": "free_nil2", "rank": 1, "names": ["a"]},
    "m2": {"kind": "free_nil2", "rank": 1, "names": ["x"]},
    "m3": {"kind": "free_abelian", "rank": 1, "names": ["t"]},
    "d2": {"images": [{"base": [0], "comm": []}]},
    "d3": {"images": [{"base": [0], "comm": []}]},
    "action2": {"kind": "trivial"},
    "action3": {"kind": "trivial"},
}


def test_mixed_pair_kinds_rejected():
    d = build_sphere_D()
    raw = {"version": "1", "kind": "pair",
           "body": {"source": {"kind": "rqc4", "body": sf.rqc4_body(d)},
                    "target": {"kind": "xc3", "body": XC3_BODY}}}
    with pytest.raises(sf.StructureError) as exc:
        sf.build_structure(raw)
    assert "xc3" in str(exc.value)
    assert exc.value.path.endswith(".kind")


def _pair_file(structures_dir):
    with open(os.path.join(structures_dir, "retraction_pair.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def test_a_recurring_body_is_built_once(structures_dir):
    (_, source), (_, target) = sf.build_structure(_pair_file(structures_dir)).value
    assert source.under.base is target
    assert target.under.base is target
    xc3 = {"kind": "xc3", "body": XC3_BODY}
    (_, source), (_, target) = sf.build_structure(
        {"version": "1", "kind": "pair",
         "body": {"source": xc3, "target": xc3}}).value
    assert source is target


def test_a_renamed_body_is_built_apart(structures_dir):
    raw = _pair_file(structures_dir)
    raw["body"]["target"]["body"]["name"] = "D again"
    (_, source), (_, target) = sf.build_structure(raw).value
    assert source.under.base is not target
    assert sf.rqc4_body(source.under.base) == dict(sf.rqc4_body(target),
                                                   name=source.under.base.name)


def test_a_recurring_malformed_body_fails_where_it_first_occurs(structures_dir):
    raw = _pair_file(structures_dir)
    raw["body"]["source"]["body"]["under"]["base"]["omega"] = [[]]
    raw["body"]["target"]["body"]["omega"] = [[]]
    with pytest.raises(sf.StructureError) as exc:
        sf.build_structure(raw)
    assert str(exc.value) == ("$.body.source.body.under.base.omega[0]: "
                              "omega row must have 1 entries")


def test_homotopy_witness_length_checked():
    d = build_sphere_D()
    q = build_cylinder_Q(d)
    f = retraction_candidate(q, d, 1, 0, 0)
    g = retraction_candidate(q, d, 1, 0, 1)
    h = rq_homotopy_decision(f, g)[0]
    raw = {"version": "1", "kind": "homotopy",
           "body": dict(sf.pair_structure(f.source, f.target)["body"],
                        f=f.maps_json(), g=g.maps_json(),
                        witness=h.to_json(f.target))}
    raw["body"]["witness"]["alpha2"] = raw["body"]["witness"]["alpha2"][:1]
    with pytest.raises(sf.StructureError) as exc:
        sf.build_structure(raw)
    assert exc.value.path == "$.body.witness.alpha2"


def test_structures_agree_ignores_version_key_position():
    d = build_sphere_D()
    a = sf.rqc4_structure(d)
    b = json.loads(sf.serialize_structure(a))
    assert sf.structure_key(a) == sf.structure_key(b)
    b["body"]["name"] = "renamed"
    assert sf.structure_key(a) != sf.structure_key(b)


def test_canonical_serialization_is_stable():
    d = build_sphere_D()
    raw = sf.rqc4_structure(d)
    text = sf.serialize_structure(raw)
    assert text == sf.serialize_structure(json.loads(text))
    assert text.endswith("\n")


@pytest.mark.parametrize("q3", [FgAbelianGroup(2, [[0, 3]]), CyclicGroup(2 ** 61)],
                         ids=["fg_abelian", "cyclic"])
def test_integers_beyond_2_53_round_trip_as_bare_integers(q3):
    big = 2 ** 60
    q2 = FreeNil2Group(2)
    d3 = GroupHom(q3, q2, [q2.element_from_json({"base": [big, -big], "comm": [big]})]
                  * q3.ngens)
    w = q3.canon((big,) + (0,) * (q3.ngens - 1))
    q4 = FgAbelianGroup(0)
    cx = ReducedQuadraticComplex4(ReducedQuadraticModule(q2, q3, ((w, w), (w, w)), d3), q4,
                                  GroupHom.zero(q4, q3))
    text = sf.serialize_structure(sf.rqc4_structure(cx))
    assert str(big) in text and f'"{big}"' not in text
    back = sf.load_structure(text).value
    assert back.rqm.omega == cx.rqm.omega and back.d3.images == cx.d3.images
    assert sf.serialize_structure(sf.rqc4_structure(back)) == text
