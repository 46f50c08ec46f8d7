"""The README's command-line examples stay valid for the parser.

Every ``privsample ...`` line of the README's ``bash`` blocks, with its
backslash continuation lines joined, must parse with ``build_parser()``:
a renamed or dropped flag, or an invalid value, fails here before a reader
copies it.
"""

import itertools
import re
import shlex
from pathlib import Path

import pytest

from privsample.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples(text: str) -> list[list[str]]:
    """The argument lists of the ``privsample`` commands in ``bash`` blocks."""
    examples = []
    for block in re.findall(r"^```bash\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["privsample"]:
                examples.append(words[1:])
    return examples


EXAMPLES = readme_examples(README.read_text())


def test_every_example_is_found():
    # one per command line in the README; a change to the extraction that
    # finds fewer shows here rather than as fewer parametrized cases
    assert len(EXAMPLES) == 13


def _command(argv) -> str:
    return " ".join(itertools.takewhile(lambda word: not word.startswith("-"), argv))


@pytest.mark.parametrize("argv", EXAMPLES, ids=[_command(a) for a in EXAMPLES])
def test_example_parses(argv):
    args = build_parser().parse_args(argv)
    assert callable(args.func)
