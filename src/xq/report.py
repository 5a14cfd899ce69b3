"""Pass/fail reports for structure checkers and classification runs.

Reports are deterministic: sampling seeds come from the XQ_SEED environment
variable (default 0) and are recorded in the report metadata.  JSON output
is the canonical text of `canonical_json`, and integers outside the 53-bit
safe range are rendered as decimal strings.

A check may carry a basis: "proved" when its verdict holds for every element
(the check covers a set, such as all generator pairs, that decides it), or
"sampled" when the verdict rests on random samples.  Checks without a basis
leave it out of the JSON.
"""

from __future__ import annotations

import functools
import json
import os
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # annotations only: `Report.rng` imports it to build a generator
    import random

SAFE_INT = 2 ** 53


def canonical_json(obj: Any, quote_unsafe: bool = False) -> str:
    """The text of `json.dumps` with `sort_keys=True, indent=2`, plus a
    newline, written in one pass.  Dict keys must be str, lists and tuples
    are arrays, and a key or value of any other type raises TypeError.
    With `quote_unsafe`, as for reports, an integer outside the 53-bit safe
    range is written as its decimal string; structure files keep it a
    number."""
    out: list[str] = []
    _write(obj, out, "\n", quote_unsafe)
    return "".join(out) + "\n"


def _write(obj: Any, out: list[str], newline: str, quote_unsafe: bool) -> None:
    """Append the text of obj to out, `newline` being a line break and the
    indent of the line obj starts on.  One call per nesting level, so that
    any nesting a structure file may have (`structfile.MAX_NESTING`) can be
    written back."""
    inner = newline + "  "
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif type(obj) is int:
        text = int.__repr__(obj)
        out.append('"' + text + '"' if quote_unsafe and not -SAFE_INT < obj < SAFE_INT
                   else text)
    elif obj is True or obj is False or obj is None:
        out.append("true" if obj else "false" if obj is False else "null")
    elif isinstance(obj, dict):
        sep = "{" + inner
        for k, v in sorted(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _write(v, out, inner, quote_unsafe)
            sep = "," + inner
        out.append(newline + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)) and all(type(v) is int for v in obj) and not (
            quote_unsafe and obj and (min(obj) <= -SAFE_INT or max(obj) >= SAFE_INT)):
        out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + newline + "]"
                   if obj else "[]")
    elif isinstance(obj, (list, tuple)):
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _write(v, out, inner, quote_unsafe)
            sep = "," + inner
        out.append(newline + "]")
    else:  # floats and int subclasses as json writes them, or TypeError
        out.append(json.dumps(obj))


def seed_from_env() -> int:
    raw = os.environ.get("XQ_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"XQ_SEED must be an integer, got {raw!r}")


def sampled_report(title: str, samples: int, seed: int | None,
                   basis: str | None = None) -> Report:
    """A report whose meta records `samples` and the seed, XQ_SEED's when
    seed is None, for checks that draw from its `rng`."""
    if seed is None:
        seed = seed_from_env()
    rep = Report(title, basis=basis)
    rep.meta.update(seed=seed, samples=samples)
    return rep


class Undefined(ValueError):
    """A value a check needs is not defined by the structure, such as the
    action of -a when the endomorphism of a is not invertible."""


class Check:
    """One check's verdict; checks with the same fields are equal."""

    __slots__ = ("check_id", "passed", "witness", "note", "basis")

    def __init__(self, check_id: str, passed: bool, witness: str | None = None,
                 note: str | None = None, basis: str | None = None):
        self.check_id, self.passed, self.witness = check_id, passed, witness
        self.note, self.basis = note, basis

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def to_json(self) -> dict:
        out: dict[str, Any] = {"id": self.check_id, "passed": self.passed}
        optional = {"witness": self.witness, "note": self.note, "basis": self.basis}
        out.update((k, v) for k, v in optional.items() if v is not None)
        return out


class Report:
    """Checks, axioms, witnesses, obstructions and meta under a title;
    reports with equal fields are equal.  `basis` is the basis of checks
    added without one."""

    _FIELDS = ("title", "checks", "axioms", "witnesses", "obstructions", "meta", "basis")

    def __init__(self, title: str, checks: Iterable[Check] = (), axioms: Iterable[str] = (),
                 witnesses: Iterable[dict] = (), obstructions: Iterable[dict] = (),
                 meta: dict | None = None, basis: str | None = None):
        self.title, self.checks, self.axioms = title, list(checks), list(axioms)
        self.witnesses, self.obstructions = list(witnesses), list(obstructions)
        self.meta, self.basis = dict(meta or {}), basis

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self._FIELDS)

    @functools.cached_property
    def rng(self) -> random.Random:
        """The generator of a `sampled_report`, seeded with its meta's seed
        on first use, so that a check that draws nothing builds none and a
        command that samples nothing does not import `random`."""
        import random
        return random.Random(self.meta["seed"])

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check_id: str, passed: bool, witness: str | None = None,
            note: str | None = None, basis: str | None = None) -> Check:
        check = Check(check_id, bool(passed), witness, note, basis or self.basis)
        self.checks.append(check)
        return check

    def first_failure(self, check_id: str, failures: Iterable[str],
                      note: str | None = None, basis: str | None = None) -> Check:
        """Record `check_id` as passed unless the lazy iterable `failures`
        yields a message; the first message is the witness, and nothing after
        it is computed.  A scan that meets a value the structure leaves
        undefined fails with the `Undefined` message as witness."""
        try:
            witness = next(iter(failures), None)
        except Undefined as exc:
            witness = str(exc)
        return self.add(check_id, witness is None, witness, note, basis)

    def add_hom(self, check_id: str, hom) -> Check:
        """Record `hom.check_hom()`, which is exact, as a proved check."""
        ok, why = hom.check_hom()
        return self.add(check_id, ok, why, basis="proved")

    def merge(self, other: "Report", prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(Check(prefix + c.check_id, c.passed, c.witness, c.note, c.basis))
        for a in other.axioms:
            if a not in self.axioms:
                self.axioms.append(a)
        self.witnesses.extend(other.witnesses)
        self.obstructions.extend(other.obstructions)

    def failed(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_json_obj(self) -> dict:
        """The report as a JSON object.  Its lists and dicts below the top
        level are the report's own, not copies, and its integers are not
        encoded: `to_json` quotes the unsafe ones as it writes."""
        out: dict[str, Any] = {
            "title": self.title,
            "ok": self.ok,
            "checks": [c.to_json() for c in self.checks],
        }
        if self.axioms:
            out["axioms"] = list(self.axioms)
        if self.witnesses:
            out["witnesses"] = self.witnesses
        if self.obstructions:
            out["obstructions"] = self.obstructions
        if self.meta:
            out["meta"] = self.meta
        return out

    def to_json(self, **extra: Any) -> str:
        """The canonical text of `to_json_obj()` with the entries of
        `extra` added, integers outside the 53-bit safe range as decimal
        strings."""
        return canonical_json({**self.to_json_obj(), **extra}, quote_unsafe=True)

    def text(self) -> str:
        lines = [self.title]
        for key, value in sorted(self.meta.items()):
            lines.append(f"  {key}: {value}")
        for a in self.axioms:
            lines.append(f"  axiom: {a}")
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status} {c.check_id}"
            if c.note:
                line += f" ({c.note})"
            if c.witness and not c.passed:
                line += f" -- {c.witness}"
            lines.append(line)
        lines.append("OK" if self.ok else
                     f"FAILED ({len(self.failed())} of {len(self.checks)} checks)")
        return "\n".join(lines) + "\n"
