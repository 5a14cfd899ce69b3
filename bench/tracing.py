"""Spans around the layers of `xq`, recorded from outside the package.

`Tracer.install()` replaces each function in `LAYERS` with a wrapper at
every binding site: the defining module, and every `xq` module or package
namespace that imported the same object by name (for example `qcm_check`
is bound in `xq.quadratic`, `xq.sphere`, `xq.structfile`, `xq.cli` and
`xq`).  Methods are replaced on their class.  `uninstall()` restores the
originals.

Each call records one span (name, start, end, parent span, op id) in
compact in-memory arrays; `write()` saves them at the end of a run.  A
layer's self time is its spans' durations minus the time their child spans
cover.  Counts that need an argument or a result (candidates kept, the
homotopy route, Hermite-form size, normal-form size of evaluated elements)
are taken by hooks on the same wrappers, reading normal forms without
expanding them.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute path); the span name drops the leading "xq.".
LAYERS = (
    ("xq.cli", "run"),
    ("xq.sphere", "enumerate_retractions"),
    ("xq.sphere", "classify_retractions"),
    ("xq.sphere", "retraction_candidate"),
    ("xq.quadratic", "qcm_check"),
    ("xq.quadratic", "rqc4_check"),
    ("xq.quadratic", "rq_homotopy_decision"),
    ("xq.quadratic", "verify_rq_homotopy"),
    ("xq.crossed", "xc3_homotopy_decision"),
    ("xq.crossed", "verify_xc3_homotopy"),
    ("xq.crossed", "xc3_morphism_check"),
    ("xq.intlinalg", "ZSystem.solve"),
    ("xq.intlinalg", "hnf_with_transform"),
    ("xq.intlinalg", "Lattice.reduce"),
    ("xq.groups", "GroupHom.__call__"),
    ("xq.groups", "GroupHom.check_hom"),
    ("xq.words", "word_from_pairs"),
    ("xq.nil2", "mul"),
    ("xq.structfile", "parse_structure"),
    ("xq.structfile", "build_structure"),
    ("xq.structfile", "serialize_structure"),
    ("xq.monoid", "mbar_compose"),
)

CALL_METRICS = ("quadratic.qcm_check", "quadratic.rq_homotopy_decision",
                "quadratic.verify_rq_homotopy", "crossed.xc3_homotopy_decision",
                "groups.GroupHom.__call__", "nil2.mul", "intlinalg.Lattice.reduce")
SELF_METRICS = ("sphere.enumerate_retractions", "sphere.classify_retractions",
                "quadratic.qcm_check", "quadratic.rqc4_check",
                "quadratic.rq_homotopy_decision", "quadratic.verify_rq_homotopy",
                "intlinalg.ZSystem.solve", "crossed.xc3_homotopy_decision",
                "crossed.verify_xc3_homotopy", "crossed.xc3_morphism_check",
                "groups.GroupHom.__call__", "groups.GroupHom.check_hom",
                "nil2.mul", "intlinalg.Lattice.reduce",
                "structfile.parse_structure", "structfile.build_structure",
                "structfile.serialize_structure", "monoid.mbar_compose",
                "cli.run")
COUNTERS = ("sphere.candidates_built", "sphere.candidates_kept",
            "quadratic.route_linear", "quadratic.route_bounded",
            "groups.hom_letters", "words.letters_expanded",
            "structfile.bytes_read", "structfile.errors")
MAXIMA = ("intlinalg.hnf_cells_max", "intlinalg.hnf_entry_bits_max",
          "groups.hom_exponent_bits_max")


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


def normal_form_size(group, x, reduce) -> tuple[int, int]:
    """(letters, largest exponent bit length) of the word `group.word_of`
    would spell for x, read from the normal form without expanding it.
    `reduce` is the untraced `Lattice.reduce`."""
    kind = getattr(group, "kind", None)
    if kind == "free_nil2":
        letters = sum(abs(a) for a in x.base) + 4 * sum(abs(c) for c in x.comm)
        coeffs = tuple(x.base) + tuple(x.comm)
    elif kind == "free":
        runs, last = [], None
        for letter in x:
            if letter == last:
                runs[-1] += 1
            else:
                runs.append(1)
            last = letter
        letters, coeffs = len(x), runs
    else:
        coeffs = reduce(group.lattice, list(x))
        letters = sum(abs(a) for a in coeffs)
    return letters, max((a.bit_length() for a in coeffs), default=0)


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counters: Counter = Counter()
        self.maxima: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._reduce = None

    # -- hooks ---------------------------------------------------------------

    def _before(self, name: str, args: tuple) -> tuple:
        """Count what a call is asked to do.  Malformed arguments are left
        for the traced function to reject, so that tracing never changes
        an outcome."""
        c = self.counters
        if name == "groups.GroupHom.__call__":
            hom, x = args
            try:
                letters, bits = normal_form_size(hom.source, x, self._reduce)
            except (AttributeError, TypeError, ValueError):
                return args
            c["groups.hom_letters"] += letters
            if bits > self.maxima["groups.hom_exponent_bits_max"]:
                self.maxima["groups.hom_exponent_bits_max"] = bits
        elif name == "words.word_from_pairs":
            pairs = list(args[0])
            try:
                c["words.letters_expanded"] += sum(abs(p[1]) for p in pairs)
            except (IndexError, TypeError):
                pass
            args = (pairs,) + args[1:]
        elif name == "sphere.retraction_candidate":
            c["sphere.candidates_built"] += 1
        elif name == "structfile.parse_structure":
            c["structfile.bytes_read"] += len(args[0].encode("utf-8"))
        elif name == "intlinalg.hnf_with_transform":
            rows, n = args
            cells = len(rows) * n
            if cells > self.maxima["intlinalg.hnf_cells_max"]:
                self.maxima["intlinalg.hnf_cells_max"] = cells
        return args

    def _after(self, name: str, result) -> None:
        if name == "sphere.enumerate_retractions":
            self.counters["sphere.candidates_kept"] += len(result)
        elif name == "quadratic.rq_homotopy_decision":
            method = result[1].meta.get("method", "")
            if method == "linear":
                self.counters["quadratic.route_linear"] += 1
            elif method.startswith("bounded"):
                self.counters["quadratic.route_bounded"] += 1
        elif name == "intlinalg.hnf_with_transform":
            h, u = result
            bits = max((abs(a).bit_length() for row in h + u for a in row),
                       default=0)
            if bits > self.maxima["intlinalg.hnf_entry_bits_max"]:
                self.maxima["intlinalg.hnf_entry_bits_max"] = bits

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stack = self.stack
        span_name, span_parent, span_op = (self.span_name, self.span_parent,
                                           self.span_op)
        span_start, span_end = self.span_start, self.span_end
        before, after = self._before, self._after
        counts_errors = name in ("structfile.parse_structure",
                                 "structfile.build_structure")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            args = before(name, args)
            sid = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_op.append(self.op_id)
            span_end.append(0.0)
            stack.append(sid)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if counts_errors:
                    self.counters["structfile.errors"] += 1
                raise
            finally:
                span_end[sid] = perf_counter()
                stack.pop()
            after(name, result)
            return result

        return traced

    def install(self) -> None:
        xq_modules = [m for key, m in list(sys.modules.items())
                      if key == "xq" or key.startswith("xq.")]
        for module, attr in LAYERS:
            owner, leaf, original = _resolve(module, attr)
            if attr == "Lattice.reduce":
                self._reduce = original
            name = module[len("xq."):] + "." + attr
            wrapper = self._wrap(name, original)
            sites = [owner] if owner is not sys.modules[module] else [
                m for m in xq_modules if m.__dict__.get(leaf) is original]
            for site in sites:
                setattr(site, leaf, wrapper)
                self._patched.append((site, leaf, original))

    def uninstall(self) -> None:
        for site, leaf, original in reversed(self._patched):
            setattr(site, leaf, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        n = len(self.span_start)
        child = [0.0] * n
        calls: Counter = Counter()
        self_s: Counter = Counter()
        start, end, parent, names = (self.span_start, self.span_end,
                                     self.span_parent, self.span_name)
        # spans are numbered on entry, so every child of span i has a larger
        # number and is finished with when the reverse walk reaches i
        for i in range(n - 1, -1, -1):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
            name = self.names[names[i]]
            calls[name] += 1
            self_s[name] += dur - child[i]
        return calls, self_s

    def metrics(self) -> dict[str, float]:
        calls, self_s = self.layer_totals()
        out: dict[str, float] = {}
        for name in CALL_METRICS:
            out[f"{name}.calls"] = calls[name]
        for name in SELF_METRICS:
            out[f"{name}.self_s"] = self_s[name]
        for name in COUNTERS:
            out[name] = self.counters[name]
        for name in MAXIMA:
            out[name] = self.maxima[name]
        built = self.counters["sphere.candidates_built"]
        out["sphere.keep_ratio"] = (self.counters["sphere.candidates_kept"] / built
                                    if built else 0.0)
        return out

    def write(self, path: str) -> None:
        """Spans as one JSON header line followed by the raw arrays."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "arrays": [["name", "i"], ["parent", "i"], ["op", "i"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for arr in (self.span_name, self.span_parent, self.span_op,
                        self.span_start, self.span_end):
                arr.tofile(fh)
