"""The code-line ledger (`code_lines.py`): `src/xq` has the count in
`golden/code_lines`, and the counter counts what it says it counts."""

import os
import shutil
import textwrap

import code_lines


def test_src_xq_has_the_committed_code_line_count():
    why = code_lines.difference()
    assert why is None, why


def test_docstrings_comments_and_blank_lines_are_not_code():
    source = textwrap.dedent('''\
        """Module docstring,
        over two lines."""

        # a comment
        import os  # a trailing comment


        class A:
            """Class docstring."""

            def f(self):
                """Function docstring,
                over two lines."""
                # another comment

                return os
        ''')
    assert code_lines.count_source(source) == 4


def test_every_line_of_a_statement_over_several_lines_is_code():
    source = textwrap.dedent('''\
        def f(x,
              y):
            return (x
                    + y)
        ''')
    assert code_lines.count_source(source) == 4


def test_a_string_that_is_not_a_docstring_is_code():
    source = textwrap.dedent('''\
        import os
        "a string after a statement"


        def f():
            pass
            """a string after the body's first statement,
            over two lines"""
        ''')
    assert code_lines.count_source(source) == 6


def test_the_ledger_fails_on_a_count_off_by_one_either_way(tmp_path):
    ledger = tmp_path / "code_lines"
    total = sum(code_lines.count_package().values())
    for n in (total - 1, total + 1):
        ledger.write_text(f"{n}\n")
        why = code_lines.difference(ledger=str(ledger))
        assert why is not None and f"has {total} code lines" in why
    ledger.write_text(f"{total}\n")
    assert code_lines.difference(ledger=str(ledger)) is None


def test_the_ledger_fails_on_a_copy_of_the_package_with_one_more_statement(tmp_path):
    package = tmp_path / "xq"
    shutil.copytree(code_lines.PACKAGE, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert code_lines.difference(str(package)) is None
    with open(os.path.join(package, "words.py"), "a", encoding="utf-8") as fh:
        fh.write("\nUNUSED = None\n")
    why = code_lines.difference(str(package))
    assert why is not None and str(package) in why
