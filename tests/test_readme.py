"""Every `$ fglcalc ...` example in README.md, run in-process.

An example's shown output is the lines after it up to a blank line or
the next example.  The output must match, and a trailing `...` makes it
a prefix.  An example shown without output must exit 0."""

import pathlib
import shlex

import pytest

from fglcalc.cli import run

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ fglcalc "


def readme_examples():
    """(argv, shown output lines) for each example of the README."""
    examples, reading = [], False
    for line in README.read_text().splitlines():
        if line.startswith(PROMPT):
            examples.append((shlex.split(line[len(PROMPT):]), []))
            reading = True
        elif not line.strip() or line.startswith("```"):
            reading = False
        elif reading:
            examples[-1][1].append(line)
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 10
    assert sum(1 for _, shown in EXAMPLES if shown) >= 5


@pytest.mark.parametrize("argv,shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example(capsys, argv, shown):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    if not shown:
        return
    expected = "\n".join(shown)
    if expected.endswith("..."):
        assert out.startswith(expected[:-3])
    else:
        assert out == expected + "\n"
