"""The command line's output on the bundled corpus equals tests/golden/cli.txt.
A change that alters output on purpose rewrites it with
``python tests/golden.py --write`` and lists the changed invocations."""

import golden


def test_cli_output_equals_the_golden_transcript():
    diff = golden.first_difference(golden.read(), golden.transcript())
    assert diff is None, diff
