"""The README's examples stay valid.

Every ``privsample ...`` line of the README's ``bash`` blocks, with its
backslash continuation lines joined, must parse with ``build_parser()``:
a renamed or dropped flag, or an invalid value, fails here before a reader
copies it.  The library quickstart, its ``python`` block, runs as written.
"""

import itertools
import math
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


def test_library_quickstart_runs(tmp_path, monkeypatch):
    # the README's one python block, run as written on an elements.txt whose
    # frequencies (1..500) stay inside its table range
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    freqs = {f"key{f}": f for f in range(1, 501, 7)}
    (tmp_path / "elements.txt").write_text(
        "".join(f"{key}\n" * f for key, f in freqs.items()))
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(block, names)
    assert set(names["private_keys"]) <= set(names["sample"].pairs) <= set(freqs)
    assert set(names["sanitized"]) <= set(names["sample"].pairs)
    assert math.isfinite(names["total"])
