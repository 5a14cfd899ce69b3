"""Versioned JSON structure files.

A file holds one object: {"version": "1", "kind": <kind>, "body": {...}}.
Kinds: group, precrossed, crossed, xc3, rqm, qm, rqc4, pair, morphism,
homotopy, listed with their readers and checks in `FILE_KINDS`; the
kinds of complex (rqc4, xc3) are in `COMPLEX_KINDS`.  Parsing reports
syntax errors with line/column and semantic errors with a JSON path such
as $.body.group.rank.  Serialization is canonical (sorted keys, two-space
indent, trailing newline) so that equal structures produce byte-identical
files.
"""

from __future__ import annotations

import json
import marshal
import os
import re
import stat
from typing import Any, Callable, NamedTuple

from .crossed import (CrossedComplex3, GroupAction, PreCrossedModule,
                      XC3Homotopy, XC3Morphism, check_crossed,
                      check_precrossed, verify_xc3_homotopy, xc3_check,
                      xc3_homotopy_decision, xc3_morphism_check)
from .groups import Group, GroupHom, group_from_json, is_int
from .quadratic import (QCHomotopy, QCMorphism, QuadraticModule,
                        ReducedQuadraticComplex4, ReducedQuadraticModule,
                        UnderCofibration, qcm_check, qm_check,
                        rq_homotopy_decision, rqc4_check, rqm_check,
                        verify_rq_homotopy)
from .report import Report, canonical_json

FORMAT_VERSION = "1"

# The deepest nesting of arrays and objects a structure file may have.  The
# reader of some interpreters goes deeper than a recursive writer or check
# can follow; one fixed bound makes every interpreter refuse the same files.
MAX_NESTING = 512
_JSON_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')

SIDES = ("source", "target")


class StructureError(ValueError):
    """Parse or validation failure with a position.

    Syntax problems carry line/column; semantic problems carry a JSON path.
    """

    def __init__(self, message: str, path: str | None = None,
                 line: int | None = None, col: int | None = None):
        self.reason = message
        self.path = path
        self.line = line
        self.col = col
        super().__init__(str(self))

    def __str__(self) -> str:
        if self.line is not None:
            return f"line {self.line}, column {self.col}: {self.reason}"
        if self.path is not None:
            return f"{self.path}: {self.reason}"
        return self.reason


def _err(message: str, path: str) -> StructureError:
    return StructureError(message, path=path)


def _expect_dict(obj, path) -> dict:
    if not isinstance(obj, dict):
        raise _err(f"expected an object, found {type(obj).__name__}", path)
    return obj


def _expect_list(obj, path) -> list:
    if not isinstance(obj, list):
        raise _err(f"expected an array, found {type(obj).__name__}", path)
    return obj


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise _err("missing required key", f"{path}.{key}")
    return obj[key], f"{path}.{key}"


def _opt(obj: dict, key: str, path: str, default=None):
    return obj.get(key, default), f"{path}.{key}"


def parse_structure(text: str) -> dict:
    """JSON text -> raw structure object, with positioned diagnostics."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise StructureError(e.msg, line=e.lineno, col=e.colno) from None
    except RecursionError:
        raise _err("nesting too deep to read", "$") from None
    if text.count("[") + text.count("{") > MAX_NESTING and _nesting(text) > MAX_NESTING:
        raise _err("nesting too deep to read", "$")
    raw = _expect_dict(raw, "$")
    version, vpath = _get(raw, "version", "$")
    if version != FORMAT_VERSION:
        raise _err(f"unsupported format version {version!r} "
                   f"(this reader understands {FORMAT_VERSION!r})", vpath)
    kind, kpath = _get(raw, "kind", "$")
    if kind not in STRUCTURE_KINDS:
        raise _err(f"unknown structure kind {kind!r}; expected one of "
                   + ", ".join(STRUCTURE_KINDS), kpath)
    body, bpath = _get(raw, "body", "$")
    _expect_dict(body, bpath)
    return raw


def _nesting(text: str) -> int:
    """The deepest nesting of arrays and objects in valid JSON text; the
    brackets inside strings are dropped with the strings."""
    depth = deepest = 0
    for b in re.findall(r"[][{}]", _JSON_STRING.sub("", text)):
        depth += 1 if b in "[{" else -1
        deepest = max(deepest, depth)
    return deepest


def serialize_structure(obj: dict) -> str:
    """Canonical text: sorted keys, two-space indent, trailing newline."""
    return canonical_json(obj)


def write_text(path: str, text: str) -> None:
    """Leave the file at path holding exactly `text`, in UTF-8.

    The file is opened without O_TRUNC and overwritten in place, and a
    regular file is then cut at the end of what was written.  Emptying it
    first frees its blocks, and on ext4 the close after that starts
    writeback: on an ext4 root mounted with `discard`, rewriting a 900-byte
    file cost 115-155 us that way against 6-18 us in place.  A pipe or
    device, such as /dev/stdout, is written and not truncated.  A symlink
    is followed, and a new file gets mode 0o666 less the umask, as a
    text-mode open for writing gives.  Any OSError is a StructureError
    naming the path; the descriptor is closed either way.  A write cut
    short leaves the new text's prefix over the old file's tail; the
    README says when that can still read as JSON."""
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as e:
        raise StructureError(f"cannot write {path}: {e.strerror or e}")


# -- element / map level ------------------------------------------------------

def _build_group(obj, path) -> Group:
    obj = _expect_dict(obj, path)
    kind, kpath = _get(obj, "kind", path)
    if not isinstance(kind, str):
        raise _err("group kind must be a string", kpath)
    rels, relpath = _opt(obj, "relations", path)
    if kind == "cyclic":
        order, opath = _get(obj, "order", path)
        if not is_int(order) or order < 1:
            raise _err("cyclic group order must be an integer >= 1", opath)
    else:
        rank, rpath = _get(obj, "rank", path)
        if not is_int(rank) or rank < 0:
            raise _err("rank must be a nonnegative integer", rpath)
        if rels is not None:
            rels = _expect_list(rels, relpath)
            for i, row in enumerate(rels):
                row = _expect_list(row, f"{relpath}[{i}]")
                if len(row) != rank or not all(map(is_int, row)):
                    raise _err(f"relation rows must have {rank} integer entries",
                               f"{relpath}[{i}]")
    names, npath = _opt(obj, "names", path)
    if names is not None:
        names = _expect_list(names, npath)
        if not all(isinstance(s, str) for s in names):
            raise _err("names must be strings", npath)
    try:
        group = group_from_json(obj)
    except ValueError as e:
        raise _err(str(e), path) from None
    if rels and kind != "fg_abelian":
        raise _err(f"a {kind} group takes no relations; fg_abelian ones do", relpath)
    return group


def _build_element(group: Group, obj, path):
    try:
        return group.element_from_json(obj)
    except (ValueError, TypeError, IndexError, KeyError) as e:
        raise _err(f"bad element: {e}", path) from None


def _build_elements(group: Group, objs: list, path) -> list:
    """The elements of the JSON array objs at path, read at once where the
    group's class can (`Group.elements_from_json`); when that fails they are
    read again one by one, so that the first bad one is reported at its own
    path, as `_build_element` reports it."""
    try:
        return group.elements_from_json(objs)
    except (ValueError, TypeError, IndexError, KeyError):
        return [_build_element(group, e, f"{path}[{i}]") for i, e in enumerate(objs)]


def _build_hom(obj, path, source: Group, target: Group) -> GroupHom:
    obj = _expect_dict(obj, path)
    images, ipath = _get(obj, "images", path)
    images = _expect_list(images, ipath)
    if len(images) != source.ngens:
        raise _err(f"expected {source.ngens} images (one per source generator), "
                   f"found {len(images)}", ipath)
    return GroupHom.of_canonical(source, target, _build_elements(target, images, ipath))


def _build_action(obj, path, acting: Group, acted: Group) -> GroupAction:
    obj = _expect_dict(obj, path)
    kind, kpath = _opt(obj, "kind", path, "table")
    if kind == "trivial":
        return GroupAction.trivial(acting, acted)
    if kind == "conjugation":
        if acting != acted:
            raise _err("conjugation action needs acting == acted", kpath)
        return GroupAction.conjugation(acting)
    if kind != "table":
        raise _err(f"unknown action kind {kind!r}", kpath)

    def rows(table, tpath):
        """The acted.ngens x acting.ngens elements of a table at tpath."""
        table = _expect_list(table, tpath)
        if len(table) != acted.ngens:
            raise _err(f"action table needs one row per acted generator "
                       f"({acted.ngens}), found {len(table)}", tpath)
        out = []
        for x, row in enumerate(table):
            row = _expect_list(row, f"{tpath}[{x}]")
            if len(row) != acting.ngens:
                raise _err(f"row must have {acting.ngens} entries", f"{tpath}[{x}]")
            out.append(_build_elements(acted, row, f"{tpath}[{x}]"))
        return out

    table = rows(*_get(obj, "table", path))
    inv, invpath = _opt(obj, "inverse_table", path)
    inv_rows = None if inv is None else rows(inv, invpath)
    try:
        return GroupAction(acting, acted, kind="table", table=table,
                           inverse_table=inv_rows)
    except ValueError as e:
        raise _err(str(e), path) from None


def _build_omega(obj, path, q2: Group, q3: Group) -> tuple:
    obj = _expect_list(obj, path)
    n = q2.ngens
    if len(obj) != n:
        raise _err(f"omega needs {n} rows (abelianized basis of the degree-2 "
                   f"group), found {len(obj)}", path)
    rows = []
    for i, row in enumerate(obj):
        row = _expect_list(row, f"{path}[{i}]")
        if len(row) != n:
            raise _err(f"omega row must have {n} entries", f"{path}[{i}]")
        rows.append(tuple(_build_elements(q3, row, f"{path}[{i}]")))
    return tuple(rows)


# -- structure level ----------------------------------------------------------

def _build_precrossed(body, path) -> PreCrossedModule:
    m1 = _build_group(*_get(body, "m1", path))
    m2 = _build_group(*_get(body, "m2", path))
    d = _build_hom(*_get(body, "d", path), source=m2, target=m1)
    action = _build_action(*_get(body, "action", path), acting=m1, acted=m2)
    return PreCrossedModule(m1, m2, d, action)


def _build_xc3(body, path) -> CrossedComplex3:
    m1 = _build_group(*_get(body, "m1", path))
    m2 = _build_group(*_get(body, "m2", path))
    m3 = _build_group(*_get(body, "m3", path))
    d2 = _build_hom(*_get(body, "d2", path), source=m2, target=m1)
    d3 = _build_hom(*_get(body, "d3", path), source=m3, target=m2)
    action2 = _build_action(*_get(body, "action2", path), acting=m1, acted=m2)
    action3 = _build_action(*_get(body, "action3", path), acting=m1, acted=m3)
    under2, u2path = _opt(body, "under2", path, [])
    under3, u3path = _opt(body, "under3", path, [])
    u2 = tuple(_build_elements(m2, _expect_list(under2, u2path), u2path))
    u3 = tuple(_build_elements(m3, _expect_list(under3, u3path), u3path))
    return CrossedComplex3(m1, m2, m3, d2, d3, action2, action3, u2, u3)


def _build_rqm(body, path) -> ReducedQuadraticModule:
    q2 = _build_group(*_get(body, "q2", path))
    q3 = _build_group(*_get(body, "q3", path))
    d3 = _build_hom(*_get(body, "d3", path), source=q3, target=q2)
    omega = _build_omega(*_get(body, "omega", path), q2=q2, q3=q3)
    try:
        return ReducedQuadraticModule(q2, q3, omega, d3, canonical=True)
    except ValueError as e:
        raise _err(str(e), path) from None


def _build_qm(body, path) -> QuadraticModule:
    pre = _build_precrossed(body, path)
    q3 = _build_group(*_get(body, "q3", path))
    d3 = _build_hom(*_get(body, "d3", path), source=q3, target=pre.m2)
    omega = _build_omega(*_get(body, "omega", path), q2=pre.m2, q3=q3)
    action3 = _build_action(*_get(body, "action3", path),
                            acting=pre.m1, acted=q3)
    try:
        return QuadraticModule(pre, q3, d3, omega, action3)
    except ValueError as e:
        raise _err(str(e), path) from None


def _build_rqc4(body, path, built: dict) -> ReducedQuadraticComplex4:
    body = _expect_dict(body, path)
    rqm = _build_rqm(body, path)
    q4 = _build_group(*_get(body, "q4", path))
    d4 = _build_hom(*_get(body, "d4", path), source=q4, target=rqm.q3)
    name, npath = _opt(body, "name", path, "reduced quadratic 4-complex")
    if not isinstance(name, str):
        raise _err("name must be a string", npath)
    cx = ReducedQuadraticComplex4(rqm, q4, d4, name=name)
    under, upath = _opt(body, "under", path)
    if under is not None:
        under = _expect_dict(under, upath)
        base_raw, basepath = _get(under, "base", upath)
        if base_raw == "self":
            base = cx
        else:
            base = _build_complex("rqc4", base_raw, basepath, built)
        uq2 = _build_hom(*_get(under, "q2", upath), source=base.q2, target=cx.q2)
        uq3 = _build_hom(*_get(under, "q3", upath), source=base.q3, target=cx.q3)
        uq4 = _build_hom(*_get(under, "q4", upath), source=base.q4, target=cx.q4)
        cx.under = UnderCofibration(base, uq2, uq3, uq4)
    return cx


class ComplexKind(NamedTuple):
    """How files of one kind of complex are read and checked.

    `build(body, path, built)` reads a complex's body, `built` being the
    file's complexes as `_build_complex` keeps them, and `check` checks it.
    `maps` lists (key, degree) for each map of a morphism, a hom between the
    complexes' groups of that degree; `morphism(source, target, *homs)`
    builds it and `morphism_check` checks it.  `witness` lists (key, source
    degree, target degree) for each value list of a homotopy, one value in
    the target's group per source generator; `homotopy(*lists)` builds it,
    `verify(f, g, h)` re-checks it and `decide(f, g)` finds one."""

    build: Callable
    check: Callable
    maps: tuple
    morphism: type
    morphism_check: Callable
    witness: tuple
    homotopy: type
    verify: Callable
    decide: Callable


# checks are looked up by name when called, so that a replaced module
# binding (the benchmark's tracer, a test's spy) is the one called
COMPLEX_KINDS = {
    "rqc4": ComplexKind(
        _build_rqc4, lambda cx: rqc4_check(cx),
        (("f2", "q2"), ("f3", "q3"), ("f4", "q4")), QCMorphism,
        lambda m: qcm_check(m),
        (("alpha2", "q2", "q3"), ("alpha3", "q3", "q4")), QCHomotopy,
        lambda *fgh: verify_rq_homotopy(*fgh), lambda *fg: rq_homotopy_decision(*fg)),
    "xc3": ComplexKind(
        lambda body, path, _: _build_xc3(body, path), lambda cx: xc3_check(cx),
        (("f1", "m1"), ("f2", "m2"), ("f3", "m3")), XC3Morphism,
        lambda m: xc3_morphism_check(m),
        (("alpha", "m2", "m3"),), XC3Homotopy,
        lambda *fgh: verify_xc3_homotopy(*fgh), lambda *fg: xc3_homotopy_decision(*fg)),
}


def _build_complex(kind: str, body, path, built: dict):
    """The complex of `kind` with this body, built once per file.

    `built` maps the `structure_bytes` of each complex the file has built
    to it, so a body that recurs, such as D as a pair's target and as Q's
    under.base, is one object and the coordinates kept on its maps and
    omega fill once.  A body that fails to build is not kept: its first
    occurrence raises, at its own path."""
    data = structure_bytes({"kind": kind, "body": body})
    cx = built.get(data)
    if cx is None:
        cx = built[data] = COMPLEX_KINDS[kind].build(body, path, built)
    return cx


def _build_complex_structure(obj, path, built: dict):
    """A nested {"kind","body"} structure that must be rqc4 or xc3."""
    obj = _expect_dict(obj, path)
    kind, kpath = _get(obj, "kind", path)
    body, bpath = _get(obj, "body", path)
    _expect_dict(body, bpath)
    if not (isinstance(kind, str) and kind in COMPLEX_KINDS):
        raise _err(f"expected an rqc4 or xc3 structure here, found {kind!r}",
                   kpath)
    return kind, _build_complex(kind, body, bpath, built)


def _build_sides(body, path):
    """(kind, source, target) of a pair, morphism or homotopy body, whose
    sides must be complexes of one kind; equal sides are one object."""
    built: dict = {}
    src_kind, source = _build_complex_structure(*_get(body, "source", path), built)
    tgt_kind, target = _build_complex_structure(*_get(body, "target", path), built)
    if src_kind != tgt_kind:
        raise _err(f"source is {src_kind} but target is {tgt_kind}",
                   f"{path}.target.kind")
    return src_kind, source, target


def bind_maps(maps, path, kind: str, source, target):
    """The morphism of complexes of the given kind whose maps are `maps`,
    bound to the built complexes `source` and `target`."""
    maps = _expect_dict(maps, path)
    spec = COMPLEX_KINDS[kind]
    return spec.morphism(source, target, *(
        _build_hom(*_get(maps, name, path), source=getattr(source, degree),
                   target=getattr(target, degree))
        for name, degree in spec.maps))


def _build_pair(body, path):
    kind, source, target = _build_sides(body, path)
    return COMPLEX_KINDS[kind], ((kind, source), (kind, target))


def _build_morphism(body, path):
    sides = _build_sides(body, path)
    return COMPLEX_KINDS[sides[0]], bind_maps(*_get(body, "maps", path), *sides)


def _build_homotopy(body, path):
    kind, source, target = _build_sides(body, path)
    fmaps, fpath = _get(body, "f", path)
    gmaps, gpath = _get(body, "g", path)
    witness, wpath = _get(body, "witness", path)
    witness = _expect_dict(witness, wpath)
    f = bind_maps(fmaps, fpath, kind, source, target)
    g = bind_maps(gmaps, gpath, kind, source, target)
    # every length is checked before any value is built
    spec, fields = COMPLEX_KINDS[kind], []
    for name, src_degree, tgt_degree in spec.witness:
        values, vpath = _get(witness, name, wpath)
        values = _expect_list(values, vpath)
        n = getattr(source, src_degree).ngens
        if len(values) != n:
            raise _err(f"{name} needs {n} values", vpath)
        fields.append((getattr(target, tgt_degree), values, vpath))
    h = spec.homotopy(*(tuple(_build_elements(group, values, vpath))
                        for group, values, vpath in fields))
    return spec, (f, g, h)


def _check_pair(pair, spec, **_) -> Report:
    rep = Report("pair of complexes")
    for name, (_, cx) in zip(SIDES, pair):
        rep.merge(spec.check(cx), prefix=f"{name}.")
    return rep


def _check_group(g: Group, _, **__) -> Report:
    """The group laws hold by construction: every group class computes in
    the normal forms of the group it implements, which `tests/axiom_oracle.py`
    scans on random elements of each class."""
    rep = Report(f"group laws ({g.kind})")
    rep.add("group_laws", True, note="by construction of the normal forms")
    return rep


# kind -> (read, check): read(body, path) gives (sides, value) and
# check(value, sides, samples=, seed=) its Report, as in StructureFile; only
# the checks of a qm file sample, so only they read samples and seed
FILE_KINDS = {
    "group": (lambda body, path: (None, _build_group(*_get(body, "group", path))),
              _check_group),
    "precrossed": (lambda body, path: (None, _build_precrossed(body, path)),
                   lambda m, _, **__: check_precrossed(m)),
    "crossed": (lambda body, path: (None, _build_precrossed(body, path)),
                lambda m, _, **__: check_crossed(m)),
    "xc3": (lambda body, path: (None, _build_xc3(body, path)),
            lambda cx, _, **__: COMPLEX_KINDS["xc3"].check(cx)),
    "rqm": (lambda body, path: (None, _build_rqm(body, path)),
            lambda q, _, **__: rqm_check(q)),
    "qm": (lambda body, path: (None, _build_qm(body, path)),
           lambda q, _, **kw: qm_check(q, **kw)),
    "rqc4": (lambda body, path: (None, _build_rqc4(body, path, {})),
             lambda cx, _, **__: COMPLEX_KINDS["rqc4"].check(cx)),
    "pair": (_build_pair, _check_pair),
    "morphism": (_build_morphism, lambda m, spec, **_: spec.morphism_check(m)),
    "homotopy": (_build_homotopy, lambda fgh, spec, **_: spec.verify(*fgh)),
}

STRUCTURE_KINDS = tuple(FILE_KINDS)


class StructureFile:
    """A parsed and semantically validated structure file; `sides` is the
    ComplexKind of a pair's, morphism's or homotopy's sides, else None."""

    def __init__(self, kind: str, value: Any, sides: ComplexKind | None):
        self.kind, self.value, self.sides = kind, value, sides

    def check(self, samples: int = 200, seed: int | None = None) -> Report:
        """Run the axiom/validity checks appropriate for this kind."""
        return FILE_KINDS[self.kind][1](self.value, self.sides,
                                        samples=samples, seed=seed)


def build_structure(raw: dict) -> StructureFile:
    """Validated StructureFile from a raw parsed object."""
    kind = raw["kind"]
    if not (isinstance(kind, str) and kind in FILE_KINDS):
        raise _err(f"unknown structure kind {kind!r}", "$.kind")
    sides, value = FILE_KINDS[kind][0](raw["body"], "$.body")
    return StructureFile(kind, value, sides)


def load_structure(text: str) -> StructureFile:
    return build_structure(parse_structure(text))


# -- writers ------------------------------------------------------------------

def rqc4_body(cx: ReducedQuadraticComplex4) -> dict:
    body = {
        "name": cx.name,
        "q2": cx.q2.to_json(),
        "q3": cx.q3.to_json(),
        "omega": [[cx.q3.element_to_json(e) for e in row]
                  for row in cx.rqm.omega],
        "d3": cx.d3.element_json(),
        "q4": cx.q4.to_json(),
        "d4": cx.d4.element_json(),
    }
    if cx.under is not None:
        base = "self" if cx.under.base is cx else rqc4_body(cx.under.base)
        body["under"] = {"base": base,
                         "q2": cx.under.q2.element_json(),
                         "q3": cx.under.q3.element_json(),
                         "q4": cx.under.q4.element_json()}
    return body


def rqc4_structure(cx: ReducedQuadraticComplex4) -> dict:
    return {"version": FORMAT_VERSION, "kind": "rqc4", "body": rqc4_body(cx)}


def _sides_json(source: ReducedQuadraticComplex4,
                target: ReducedQuadraticComplex4) -> dict:
    return {side: {"kind": "rqc4", "body": rqc4_body(cx)}
            for side, cx in zip(SIDES, (source, target))}


def pair_structure(source: ReducedQuadraticComplex4,
                   target: ReducedQuadraticComplex4) -> dict:
    return {"version": FORMAT_VERSION, "kind": "pair",
            "body": _sides_json(source, target)}


def morphism_structure(m: QCMorphism) -> dict:
    return {"version": FORMAT_VERSION, "kind": "morphism",
            "body": {**_sides_json(m.source, m.target), "maps": m.maps_json()}}


def structure_bytes(obj) -> bytes | None:
    """The identity of a parsed nested {"kind","body"} structure: the
    `marshal` bytes (format 2) of its (kind, body), or None when obj is not
    an object holding both keys.

    Format 2 writes no back-references, so equal bytes are the same JSON
    values, of the same types, with keys in the same order; structures
    with equal bytes have equal `structure_key`.  Bytes that differ decide
    nothing, since keys may come in another order.  An int subclass, such as
    an IntEnum entry, which marshal cannot write, is read as its int: such
    a structure's bytes are its `structure_key`, encoded, which no marshal
    bytes equal."""
    if not (isinstance(obj, dict) and "kind" in obj and "body" in obj):
        return None
    try:
        return marshal.dumps((obj["kind"], obj["body"]), 2)
    except ValueError:
        return structure_key(obj).encode()


def structure_key(obj) -> str | None:
    """Canonical compact text of a nested {"kind","body"} structure, or None
    when obj is not an object holding both keys.

    Sorted keys and no whitespace: the text has the same tokens as the
    indented canonical text, so two structures share a key exactly when
    they serialize to the same bytes; it is written by the C encoder, which
    `json.dumps` uses only without an indent.  This is what agreement of
    two structures means; `same_structure` computes it only when their
    `structure_bytes` differ."""
    if not (isinstance(obj, dict) and "kind" in obj and "body" in obj):
        return None
    return json.dumps({"kind": obj["kind"], "body": obj["body"]},
                      sort_keys=True, separators=(",", ":"))


def same_structure(obj, known, known_bytes: bytes) -> bool:
    """Whether obj and `known`, whose `structure_bytes` are known_bytes,
    have the same `structure_key`: equal bytes decide it without the keys."""
    data = structure_bytes(obj)
    return data is not None and (data == known_bytes
                                 or structure_key(obj) == structure_key(known))
