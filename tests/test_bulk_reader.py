"""Arrays of elements read at once (`Group.elements_from_json`): the same
values as the per-element reader on valid input, and on malformed input
the same `StructureError`, text and path, as when every element was read
one by one.  The pins in `MALFORMED` were recorded with the per-element
reader, before the arrays were read at once."""

import copy
import enum
import hashlib
import json
import os
import random

import pytest

from xq import structfile as sf
from xq.groups import (CyclicGroup, FgAbelianGroup, FreeAbelianGroup, FreeGroup,
                       FreeNil2Group)

from test_generator_coords import random_relations


class Flag(enum.IntEnum):
    ONE = 1


def groups():
    """fg_abelian with and without relations, cyclic, free_abelian and free
    nil(2) of ranks 0 to 3, and free groups."""
    rng = random.Random(350)
    out = [CyclicGroup(k) for k in (1, 2, 7)]
    for rank in range(4):
        out += [FgAbelianGroup(rank), FreeAbelianGroup(rank), FreeNil2Group(rank),
                FreeGroup(rank)]
        if rank:
            out.append(FgAbelianGroup(rank, random_relations(rng, rank)))
    return out


def valid_json(rng, g):
    """A JSON value that reads as an element of g: its canonical form, or
    for fg_abelian groups any integer array, for nil(2) a word or an object
    with no comm, and for free groups a word."""
    x = g.element_to_json(g.random_element(rng, size=5))
    word = [[rng.randrange(g.ngens), rng.randint(-3, 3)] for _ in range(rng.randint(0, 3))
            ] if g.ngens else []
    if isinstance(g, FgAbelianGroup):
        return rng.choice((x, [rng.randint(-2 ** 70, 2 ** 70) for _ in range(g.ngens)]))
    if isinstance(g, FreeNil2Group):
        return rng.choice((x, x, word, {"base": x["base"]}))
    return rng.choice((x, word))


def test_arrays_read_at_once_equal_the_per_element_reader():
    rng = random.Random(351)
    for g in groups():
        for _ in range(40):
            objs = [valid_json(rng, g) for _ in range(rng.randint(0, 5))]
            kept = copy.deepcopy(objs)
            got = g.elements_from_json(objs)
            want = [g.element_from_json(o) for o in objs]
            assert got == want and list(map(type, got)) == list(map(type, want)), g
            assert objs == kept


def d4_file(q3, images):
    """An rqc4 file with Q2 = 0, the given Q3 and Q4 = Z^len(images), whose
    d4 has these images."""
    return {"version": "1", "kind": "rqc4", "body": {
        "q2": {"kind": "free_nil2", "rank": 0}, "q3": q3.to_json(), "omega": [],
        "d3": {"images": [{"base": [], "comm": []}] * q3.ngens},
        "q4": {"kind": "free_abelian", "rank": len(images)}, "d4": {"images": images}}}


def corrupt(rng, g, obj):
    """obj with one defect, or a value the per-element reader accepts in a
    form that is not read at once (an IntEnum entry, an extra key)."""
    if isinstance(obj, dict):
        key = rng.choice(sorted(obj))
        return rng.choice((
            {k: v for k, v in obj.items() if k != key}, {**obj, "x": 0},
            {**obj, key: obj[key] + [0]}, {**obj, key: obj[key][:-1]},
            {**obj, key: [rng.choice((True, 1.5, "1", None, Flag.ONE))] + obj[key][1:]}
            if obj[key] else {**obj, key: None}))
    if isinstance(g, FgAbelianGroup):
        bad = rng.choice((True, 1.5, "1", None, Flag.ONE, [0]))
        return rng.choice((obj + [0], obj[:-1], [bad] + obj[1:] if obj else [bad], {"base": obj}))
    return rng.choice(([[0, True]], [[g.ngens, 1]], [[0]], 3, None, "x"))


def test_malformed_arrays_fail_where_the_per_element_reader_does():
    rng = random.Random(352)
    for g in groups():
        for _ in range(30):
            objs = [valid_json(rng, g) for _ in range(rng.randint(1, 4))]
            i = rng.randrange(len(objs))
            objs[i] = corrupt(rng, g, objs[i])
            want = None
            for j, o in enumerate(objs):
                try:
                    g.element_from_json(o)
                except (ValueError, TypeError, IndexError, KeyError) as e:
                    want = (f"$.body.d4.images[{j}]", f"bad element: {e}")
                    break
            raw = d4_file(g, objs)
            if want is None:
                images = sf.build_structure(raw).value.d4.images
                assert list(images) == [g.element_from_json(o) for o in objs]
                continue
            with pytest.raises(sf.StructureError) as exc:
                sf.build_structure(raw)
            assert (exc.value.path, exc.value.reason) == want


def load(structures_dir, name):
    with open(os.path.join(structures_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def witness(structures_dir):
    """pr1 against itself with the zero witness."""
    body = load(structures_dir, "retraction_pr1.json")["body"]
    return {"version": "1", "kind": "homotopy", "body": {
        "source": body["source"], "target": body["target"], "f": body["maps"],
        "g": body["maps"], "witness": {"alpha2": [[0]] * 3, "alpha3": [[]] * 10}}}


M, Q = ("body", "maps"), ("body", "source", "body")
# name -> (file, keys to the value, new value); "witness" is `witness()`
EDITS = {
    **{f"f2-base-{k}": ("pr1", M + ("f2", "images", 1, "base", 0), v)
       for k, v in (("bool", True), ("float", 1.5), ("string", "1"), ("null", None),
                    ("intenum", Flag.ONE))},
    "f2-base-length": ("pr1", M + ("f2", "images", 1, "base"), [1, 0]),
    "f2-comm-length": ("pr1", M + ("f2", "images", 1, "comm"), [0]),
    "f2-no-comm": ("pr1", M + ("f2", "images", 1), {"base": [1]}),
    "f2-no-base": ("pr1", M + ("f2", "images", 1), {"comm": []}),
    "f2-extra-key": ("pr1", M + ("f2", "images", 1), {"base": [1], "comm": [], "x": 0}),
    "f2-word": ("pr1", M + ("f2", "images", 1), [[0, 1]]),
    "f2-word-out-of-range": ("pr1", M + ("f2", "images", 1), [[1, 1]]),
    "f2-word-bool": ("pr1", M + ("f2", "images", 1), [[0, True]]),
    "f2-int": ("pr1", M + ("f2", "images", 1), 5),
    "d3-comm-bool": ("pr1", Q + ("d3", "images", 0, "comm", 2), True),
    "d3-word": ("pr1", Q + ("d3", "images", 0), [[0, -1], [1, 1], [2, 1]]),
    "d3-comm-intenum": ("pr1", Q + ("d3", "images", 0, "comm", 2), Flag.ONE),
    **{f"f3-{k}": ("pr1", M + ("f3", "images", 1), v)
       for k, v in (("bool", [True]), ("float", [1.5]), ("string", ["1"]), ("null", [None]),
                    ("intenum", [Flag.ONE]), ("long", [1, 2]), ("short", []),
                    ("object", {"base": [1]}), ("int", 3))},
    "omega-noncanonical": ("pr1", Q + ("omega", 1, 2), [5] * 10),
    "omega-bool": ("pr1", Q + ("omega", 1, 2, 0), True),
    "omega-float": ("pr1", Q + ("omega", 2, 0, 3), 1.5),
    "omega-short": ("pr1", Q + ("omega", 1, 2), [0] * 9),
    "omega-int": ("pr1", Q + ("omega", 1, 2), 7),
    "omega-row-short": ("pr1", Q + ("omega", 1), [[0] * 10] * 2),
    "relation-bool": ("pr1", Q + ("q3", "relations", 1, 0), True),
    "relation-short": ("pr1", Q + ("q3", "relations", 1), [0] * 9),
    "relation-string": ("pr1", Q + ("q3", "relations", 1), "x"),
    "relation-intenum": ("pr1", Q + ("q3", "relations", 1, 0), Flag.ONE),
    "relations-string": ("pr1", Q + ("q3", "relations"), "x"),
    "under-float": ("pr1", Q + ("under", "q3", "images", 0, 0), 1.5),
    "alpha2-bool": ("witness", ("body", "witness", "alpha2", 1), [True]),
    "alpha3-long": ("witness", ("body", "witness", "alpha3", 2), [1]),
}

# name -> the StructureError's (path, reason), or the digest of the values
# read, recorded with the per-element reader; the two IntEnum entries of a
# complex body were recorded once such a body was read, as map entries are
# (before, marshalling the body for the file's memo of complexes raised a
# bare ValueError)
MALFORMED = {
    'alpha2-bool': ('$.body.witness.alpha2[1]',
        'bad element: coordinate entries must be integers, found True'),
    'alpha3-long': ('$.body.witness.alpha3[2]',
        'bad element: element length does not match rank'),
    'd3-comm-bool': ('$.body.source.body.d3.images[0]',
        'bad element: comm entries must be integers, found True'),
    'd3-comm-intenum': ('ok',
        '6ba0c413bfa1b164'),
    'd3-word': ('ok',
        'e1f6e3e883e6120a'),
    'f2-base-bool': ('$.body.maps.f2.images[1]',
        'bad element: base entries must be integers, found True'),
    'f2-base-float': ('$.body.maps.f2.images[1]',
        'bad element: base entries must be integers, found 1.5'),
    'f2-base-intenum': ('ok',
        '9a26528df93ec8b4'),
    'f2-base-length': ('$.body.maps.f2.images[1]',
        'bad element: element dimensions do not match the group rank'),
    'f2-base-null': ('$.body.maps.f2.images[1]',
        'bad element: base entries must be integers, found None'),
    'f2-base-string': ('$.body.maps.f2.images[1]',
        "bad element: base entries must be integers, found '1'"),
    'f2-comm-length': ('$.body.maps.f2.images[1]',
        'bad element: element dimensions do not match the group rank'),
    'f2-extra-key': ('ok',
        'e1f6e3e883e6120a'),
    'f2-int': ('$.body.maps.f2.images[1]',
        'bad element: a word must be an array of [generator, exponent] pairs'),
    'f2-no-base': ('$.body.maps.f2.images[1]',
        'bad element: element dimensions do not match the group rank'),
    'f2-no-comm': ('ok',
        'e1f6e3e883e6120a'),
    'f2-word': ('ok',
        'e1f6e3e883e6120a'),
    'f2-word-bool': ('$.body.maps.f2.images[1]',
        'bad element: word pair entries must be integers, found True'),
    'f2-word-out-of-range': ('$.body.maps.f2.images[1]',
        'bad element: generator index 1 out of range for rank 1'),
    'f3-bool': ('$.body.maps.f3.images[1]',
        'bad element: coordinate entries must be integers, found True'),
    'f3-float': ('$.body.maps.f3.images[1]',
        'bad element: coordinate entries must be integers, found 1.5'),
    'f3-int': ('$.body.maps.f3.images[1]',
        'bad element: coordinate must be an array of integers'),
    'f3-intenum': ('ok',
        'df16cf5d503cc61c'),
    'f3-long': ('$.body.maps.f3.images[1]',
        'bad element: element length does not match rank'),
    'f3-null': ('$.body.maps.f3.images[1]',
        'bad element: coordinate entries must be integers, found None'),
    'f3-object': ('$.body.maps.f3.images[1]',
        'bad element: coordinate must be an array of integers'),
    'f3-short': ('$.body.maps.f3.images[1]',
        'bad element: element length does not match rank'),
    'f3-string': ('$.body.maps.f3.images[1]',
        "bad element: coordinate entries must be integers, found '1'"),
    'omega-bool': ('$.body.source.body.omega[1][2]',
        'bad element: coordinate entries must be integers, found True'),
    'omega-float': ('$.body.source.body.omega[2][0]',
        'bad element: coordinate entries must be integers, found 1.5'),
    'omega-int': ('$.body.source.body.omega[1][2]',
        'bad element: coordinate must be an array of integers'),
    'omega-noncanonical': ('ok',
        '824bc50942b27f32'),
    'omega-row-short': ('$.body.source.body.omega[1]',
        'omega row must have 3 entries'),
    'omega-short': ('$.body.source.body.omega[1][2]',
        'bad element: element length does not match rank'),
    'relation-bool': ('$.body.source.body.q3.relations[1]',
        'relation rows must have 10 integer entries'),
    'relation-intenum': ('ok',
        'e818830084c34d88'),
    'relation-short': ('$.body.source.body.q3.relations[1]',
        'relation rows must have 10 integer entries'),
    'relation-string': ('$.body.source.body.q3.relations[1]',
        'expected an array, found str'),
    'relations-string': ('$.body.source.body.q3.relations',
        'expected an array, found str'),
    'under-float': ('$.body.source.body.under.q3.images[0]',
        'bad element: coordinate entries must be integers, found 1.5'),
}


def read(raw):
    """(path, reason) of the StructureError building raw raises, or ("ok", a
    digest of the values read: every map's images, omega and the
    relations of each side's Q3, and a witness's values)."""
    try:
        value = sf.build_structure(raw).value
    except sf.StructureError as e:
        return e.path, e.reason
    m, h = (value, None) if raw["kind"] == "morphism" else value[::2]
    parts = [m.f2.images, m.f3.images, m.f4.images, h and (h.alpha2, h.alpha3)]
    for cx in (m.source, m.target):
        parts += [cx.rqm.omega, cx.d3.images, cx.d4.images, cx.q3.relations]
        parts += [cx.under.q3.images] if cx.under else []
    return "ok", hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(EDITS))
def test_malformed_files_fail_as_with_the_per_element_reader(structures_dir, name):
    stem, keys, value = EDITS[name]
    raw = (witness(structures_dir) if stem == "witness"
           else load(structures_dir, f"retraction_{stem}.json"))
    obj = raw
    for k in keys[:-1]:
        obj = obj[k]
    obj[keys[-1]] = value
    assert read(raw) == MALFORMED[name]


@pytest.mark.parametrize("bad", [1.5, "1", True], ids=["float", "string", "bool"])
@pytest.mark.parametrize("name", ["retraction_pr1.json", "retraction_pr1_twisted.json",
                                  "retraction_pr2.json"])
def test_the_benchmark_malformed_morphisms_fail_as_before(structures_dir, name, bad):
    """A float, a string or a bool in place of an entry of f2, as the
    check_files workload writes them: the error names that image."""
    images = load(structures_dir, name)["body"]["maps"]["f2"]["images"]
    for i, e in enumerate(images):
        raw = load(structures_dir, name)
        raw["body"]["maps"]["f2"]["images"][i]["base"][0] = bad
        with pytest.raises(sf.StructureError) as exc:
            sf.build_structure(raw)
        assert str(exc.value) == (f"$.body.maps.f2.images[{i}]: bad element: base "
                                  f"entries must be integers, found {bad!r}")
