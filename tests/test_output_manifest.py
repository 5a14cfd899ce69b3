"""Every op of the output manifest (`output_manifest.py`) gives the exit
code, streams and file bytes recorded in `golden/outputs.sha256`."""

import output_manifest


def test_outputs_match_the_manifest():
    lines = output_manifest.build()
    want = output_manifest.read()
    assert len(want) > 500
    why = output_manifest.first_difference(lines, want)
    assert why is None, why + "; if the change is meant, rewrite the manifest with " \
        "python3 tests/output_manifest.py and name each changed op"


def test_a_difference_names_the_first_op_and_its_argv():
    want = output_manifest.read()
    got = list(want)
    got[5] = "0" * 64 + got[5][64:]
    op_id, argv = want[5].split("  ")[1:]
    why = output_manifest.first_difference(got, want)
    assert op_id in why and argv in why
    assert output_manifest.first_difference(want[:-1], want) is not None
