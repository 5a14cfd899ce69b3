"""Rules on the source of `src/xq` that a test decides: names that must
stay gone, as searches line by line with the regular expressions below,
and the shape of the rq homotopy decider, as a walk of its syntax tree.

The searches read each line of every .py file below `src/xq`, as
`grep -rnE --include='*.py'` does; `[^.\\w]` stands for the POSIX class
`[^.[:alnum:]_]`.  Each pattern is shown to fire on an example line, so a
pattern that can never match does not pass unnoticed."""

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "xq"

# no element is spelled out letter by letter in the package:
# pattern -> a line it must find
LETTER_SPELLING = {
    r"word_of": "w = word_of(x)",
    r"to_word": "g.to_word(x)",
    r"normalize_word": "normalize_word(w)",
    r"\bLetter\b": "class Letter:",
    r"_alpha2_steps": "for s in _alpha2_steps(x):",
}

# helpers deleted from the package, which stay gone:
# - one integer elimination: xgcd is called only in Lattice.add, and the
#   one-unknown solve per box point stays gone;
# - the canonical witness is the one reduction in ZSystem.solve, and
#   coordinates are read from the groups, so the reordering and chart
#   helpers stay gone too;
# - the admissible (a, b) are listed from the solved fit, so no loop walks
#   the box's b range;
# - the count is the classification report's, r is solved with the
#   monomials, and the homology route lists its roots without a scan;
# - canonical JSON is written by report.canonical_json, not by the
#   indented json encoder, and reports quote unsafe integers as they are
#   written, not in a walk before it;
# - every output file is written by structfile.write_text, which opens it
#   with os.open and no O_TRUNC, so no built-in open() for writing is left
#   in the package;
# - the package defines no dataclass, since importing dataclasses and
#   creating the classes took a fifth of start-up;
# - the crossed checks and group laws are decided on generators, so their
#   random scans stay gone (the group-law scan is tests/axiom_oracle.py);
# - a classification writes one witness entry per pair of r-families, so
#   the per-member writer stays gone (it is tests/classify_oracle.py);
# - classify --out writes its class lists once, so the writer's memo of
#   recurring arrays stays gone, and every group keeps its relation
#   lattice, so none is built per check.
# pattern -> a line it must find
DELETED_HELPERS = {
    r"solve_one_unknown": "solve_one_unknown(a, b)",
    r"reduce_with_order": "lat.reduce_with_order(v, order)",
    r"split_lattice": "split_lattice(rows)",
    r"abelian_coords_info": "abelian_coords_info(g)",
    r"central_coords_info": "central_coords_info(g)",
    r"alpha_variable_order": "alpha_variable_order(f)",
    r"for b in range\(-ab_range": "    for b in range(-ab_range, ab_range + 1):",
    r"assemble_selfmap_count": "assemble_selfmap_count(classes)",
    r"r_solver": "r_solver(a, b)",
    r"search_range": "search_range = 10",
    r"json\.dumps\(.*indent": "text = json.dumps(obj, indent=2)",
    r"encode_numbers": "encode_numbers(obj)",
    r"""(^|[^.\w])open\([^)]*["'][abrtx+]*w""": "with open(path, 'w') as fh:",
    r"from dataclasses": "from dataclasses import dataclass",
    r"@dataclass": "@dataclass(frozen=True)",
    r"PRODUCT_LENGTH": "PRODUCT_LENGTH = 6",
    r"check_group_laws": "check_group_laws(g)",
    r"action_axioms_sampled": "action_axioms_sampled(a)",
    r"class_witnesses": "class_witnesses(rep)",
    r"def witness_json": "def witness_json(h):",
    r"values_json": "values_json(h)",
    r"id\(obj\) in seen": "if id(obj) in seen:",
    r"relation_lattice": "g.relation_lattice()",
}


def matches(patterns) -> list[str]:
    """path:line: text of each line of the package that one of the patterns
    finds, as grep prints them."""
    found = re.compile("|".join(patterns))
    return [f"{path.relative_to(PACKAGE.parent.parent)}:{n}: {line}"
            for path in sorted(PACKAGE.rglob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if found.search(line)]


@pytest.mark.parametrize("patterns", [LETTER_SPELLING, DELETED_HELPERS],
                         ids=["letter-spelling", "deleted-helpers"])
def test_no_line_of_the_package_names_what_stays_gone(patterns):
    assert matches(patterns) == []


@pytest.mark.parametrize("pattern, line", [*LETTER_SPELLING.items(), *DELETED_HELPERS.items()])
def test_each_pattern_finds_its_example(pattern, line):
    assert re.search(pattern, line)


@pytest.mark.parametrize("line", ["os.open(path, flags)", "fh = open(path)",
                                  "x.open('w')", "reopen(path, 'w')"])
def test_opening_to_read_or_by_os_open_is_allowed(line):
    assert not re.search(r"""(^|[^.\w])open\([^)]*["'][abrtx+]*w""", line)


def names_in(function: str, module: str = "quadratic.py") -> set[str]:
    """Every attribute and name read in the body of a module-level
    function."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    return ({n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            | {n.id for n in ast.walk(node) if isinstance(n, ast.Name)})


def test_the_rq_decider_writes_no_equation_of_its_own():
    """rq_homotopy_decision solves the equations of rq_homotopy_system, the
    ones verify_rq_homotopy checks: it adds no sum of its own
    (`LinearHomotopy.add_sum`) and reads no map at generators."""
    names = names_in("rq_homotopy_decision")
    assert not names & {"add_sum", "coords_at_generators"}
    assert "rq_homotopy_system" in names and "rq_homotopy_system" in names_in(
        "rq_homotopy_equations")
