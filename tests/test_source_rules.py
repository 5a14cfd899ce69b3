"""Rules on the source of `src/xq` that a test decides: names that must
stay gone, as searches line by line with the regular expressions below;
the shape of the homotopy deciders and of a few readers, as walks of their
syntax trees; and the names the command line module may not use.

The searches read each line of every .py file below `src/xq`, as
`grep -rnE --include='*.py'` does; `[^.\\w]` stands for the POSIX class
`[^.[:alnum:]_]`.  Each pattern and each tree rule is shown to fire on an
example, so a rule that can never fire does not pass unnoticed."""

import ast
import pathlib
import re
import textwrap

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
#   lattice, so none is built per check;
# - both homotopy deciders hand their system's rows to
#   LinearHomotopy.add_rows as stated, so the one-equation wrapper stays
#   gone;
# - each map keeps its coordinates at generators and each reduced
#   quadratic module omega's, so no complex keeps a table of coordinates.
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
    r"add_sum": "lin.add_sum(alpha, row)",
    r"class Coordinates\b": "class Coordinates:",
    r"\.coords\b": "s, t = src.coords, tgt.coords",
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


def names_read(tree: ast.AST, function: str) -> set[str]:
    """Every attribute and name read in the body of a module-level
    function."""
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    return ({n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            | {n.id for n in ast.walk(node) if isinstance(n, ast.Name)})


def names_in(function: str, module: str = "quadratic.py") -> set[str]:
    return names_read(ast.parse((PACKAGE / module).read_text(encoding="utf-8")), function)


def test_the_rq_decider_writes_no_equation_of_its_own():
    """rq_homotopy_decision solves the equations of rq_homotopy_system, the
    ones verify_rq_homotopy checks: it adds no sum of its own
    (`LinearHomotopy.add_sum`) and reads no map at generators."""
    names = names_in("rq_homotopy_decision")
    assert not names & {"add_sum", "coords_at_generators"}
    assert "rq_homotopy_system" in names and "rq_homotopy_system" in names_in(
        "verify_rq_homotopy")


# -- rules on syntax trees: each takes a module's tree and returns what breaks it

def calls_by_scope(tree: ast.AST, called) -> list[str]:
    """The dotted class and function scope of each call for which
    called(call) holds, "" at module level."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                yield from walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and called(child):
                yield ".".join(scope)
            yield from walk(child, scope)
    return list(walk(tree, []))


def outer_omega_callers(tree: ast.AST) -> list[str]:
    """omega of an outer product {u} (x) {v} is omega_outer, which folds
    the products u_i v_j without building the tensor; the rule has no
    exception."""
    return calls_by_scope(tree, lambda call: (
        getattr(call.func, "attr", None) == "omega_apply" and call.args
        and isinstance(call.args[0], ast.Call)
        and ast.unparse(call.args[0].func) == "TensorElement.outer"))


def xgcd_callers(tree: ast.AST) -> list[str]:
    """One integer elimination: xgcd is called only in Lattice.add."""
    return [scope for scope in calls_by_scope(tree, lambda call: "xgcd" in (
        getattr(call.func, "id", None), getattr(call.func, "attr", None)))
            if scope != "Lattice.add"]


def coordinate_tables_at_generator(tree: ast.AST) -> list[str]:
    """The equations in coordinates read the maps at generators through
    their image matrices (GroupHom.coords_at_generators): no omega cache of
    ReducedQuadraticModule, no coordinate side of a check of qcm_equations
    (the coords argument of _check) and no term of rq_homotopy_system names
    at_generator."""
    def at_generator(node) -> bool:
        return any(isinstance(n, ast.Attribute) and n.attr == "at_generator"
                   for n in ast.walk(node))
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "ReducedQuadraticModule":
            found += [f"{node.name}.{f.name}" for f in node.body
                      if isinstance(f, ast.FunctionDef)
                      and f.name in ("omega_coords", "omega_forms", "omega_rows")
                      and at_generator(f)]
        elif isinstance(node, ast.FunctionDef) and node.name == "qcm_equations":
            found += [f"qcm_equations: {ast.unparse(call.args[0])}" for call in ast.walk(node)
                      if isinstance(call, ast.Call) and ast.unparse(call.func) == "_check"
                      and len(call.args) > 4 and at_generator(call.args[4])]
        elif isinstance(node, ast.FunctionDef) and node.name == "rq_homotopy_system":
            found += [f"rq_homotopy_system: {ast.unparse(y.value.elts[0])}" for y in ast.walk(node)
                      if isinstance(y, ast.Yield) and isinstance(y.value, ast.Tuple)
                      and len(y.value.elts) > 2 and at_generator(y.value.elts[2])]
    return found


def element_by_element_readers(tree: ast.AST) -> list[str]:
    """A structure file's maps and omega tables are read as whole arrays
    (Group.elements_from_json), not element by element: neither
    structfile._build_hom nor _build_omega names _build_element."""
    return sorted(f.name for f in tree.body if isinstance(f, ast.FunctionDef)
                  and f.name in ("_build_hom", "_build_omega")
                  and any(isinstance(n, ast.Name) and n.id == "_build_element"
                          for n in ast.walk(f)))


def xc3_decider_equations(tree: ast.AST) -> list[str]:
    """xc3_homotopy_decision solves the equations of xc3_homotopy_system,
    the ones verify_xc3_homotopy checks: it adds no sum of its own, reads
    no map at generators and takes no coordinates of an element."""
    decider = names_read(tree, "xc3_homotopy_decision")
    return sorted(decider & {"add_sum", "ab", "coords_at_generators"}) + [
        f"{function} does not read xc3_homotopy_system"
        for function, names in (("xc3_homotopy_decision", decider),
                                ("verify_xc3_homotopy", names_read(tree, "verify_xc3_homotopy")))
        if "xc3_homotopy_system" not in names]


def xc3_morphism_scans(tree: ast.AST) -> list[str]:
    """xc3_morphism_check decides the equations of xc3_morphism_equations
    (`decide`), as qcm_check decides those of qcm_equations: neither of the
    two records a first failure of its own or scans .generators()."""
    check = names_read(tree, "xc3_morphism_check")
    return [f"xc3_morphism_check does not read {name}"
            for name in ("decide", "xc3_morphism_equations") if name not in check] + [
        f"{function} names {name}" for function in ("xc3_morphism_check", "xc3_morphism_equations")
        for name in sorted(names_read(tree, function) & {"first_failure", "generators"})]


# rule -> (module it reads, or None for every module; a module that breaks it)
TREE_RULES = {
    outer_omega_callers: (None, """
        class ReducedQuadraticModule:
            def square(self, u):
                return self.omega_apply(TensorElement.outer(u, u))
        """),
    xgcd_callers: (None, """
        class Lattice:
            def add(self, row):
                return xgcd(row[0], row[1])
        def solve(a, b):
            return xgcd(a, b)
        """),
    coordinate_tables_at_generator: ("quadratic.py", """
        class ReducedQuadraticModule:
            def omega_coords(self):
                return [self.d3.at_generator(i) for i in range(3)]
        def qcm_equations(m):
            yield _check("square_omega", g, 1, msg, lambda: ([m.f3.at_generator(0)], None), None)
        def rq_homotopy_system(f, g):
            yield "homotopy_degree4", g, [(3, [f.source.d4.at_generator(0)], None)], None
        """),
    element_by_element_readers: ("structfile.py", """
        def _build_hom(obj, path, source, target):
            return [_build_element(target, x, path) for x in obj]
        """),
    xc3_decider_equations: ("crossed.py", """
        def verify_xc3_homotopy(f, g, h):
            return decide(Report("certificate"), xc3_homotopy_system(f, g))
        def xc3_homotopy_decision(f, g):
            for t in f.source.m3.generators():
                lin.add_sum(alpha, f.source.m2.ab(f.source.d3(t)))
        """),
    xc3_morphism_scans: ("crossed.py", """
        def xc3_morphism_equations(m):
            yield from hom_checks({"f1": m.f1, "f2": m.f2, "f3": m.f3})
        def xc3_morphism_check(m):
            rep = decide(Report("crossed complex morphism"), xc3_morphism_equations(m))
            rep.first_failure("square_d2", (x for x in m.source.m2.generators()))
            return rep
        """),
}


@pytest.mark.parametrize("rule", TREE_RULES, ids=lambda rule: rule.__name__)
def test_no_module_breaks_a_tree_rule(rule):
    module = TREE_RULES[rule][0]
    paths = sorted(PACKAGE.rglob("*.py")) if module is None else [PACKAGE / module]
    assert [f"{path.name}: {where}" for path in paths
            for where in rule(ast.parse(path.read_text(encoding="utf-8")))] == []


@pytest.mark.parametrize("rule", TREE_RULES, ids=lambda rule: rule.__name__)
def test_each_tree_rule_fires_on_its_example(rule):
    assert rule(ast.parse(textwrap.dedent(TREE_RULES[rule][1])))


# the checks and homotopy deciders of each kind of complex are looked up in
# structfile's table, not named in the command line module but for the one
# import that keeps qcm_check bound there for the tracer
KIND_NAMES = re.compile(r"rq_homotopy_decision|xc3_homotopy_decision|qcm_check|xc3_morphism_check")
KEPT_IMPORT = "from .quadratic import qcm_check"


def kind_names(text: str) -> list[str]:
    """n: line of each line of a module that names a kind-specific check,
    but for the kept import."""
    return [f"{n}: {line}" for n, line in enumerate(text.splitlines(), 1)
            if KIND_NAMES.search(line) and line != KEPT_IMPORT]


def test_the_command_line_module_names_no_kind_specific_check():
    text = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert KEPT_IMPORT in text.splitlines()
    assert kind_names(text) == []


def test_naming_a_kind_specific_check_in_the_command_line_module_fires():
    assert kind_names(f"{KEPT_IMPORT}\n{KEPT_IMPORT}, xc3_morphism_check\n"
                      "    rep = xc3_homotopy_decision(f, g)\n") == [
        f"2: {KEPT_IMPORT}, xc3_morphism_check", "3:     rep = xc3_homotopy_decision(f, g)"]
