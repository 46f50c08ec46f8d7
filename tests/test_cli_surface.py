"""The command-line surface is pinned: a new flag, default or required bit shows as a diff here.

Each subcommand maps its flags (and positionals, by name) to their
(default, required) pair as ``build_parser()`` declares them.  A flag shared
by several subcommands is declared once, with one default, unless it is
listed in ``DIFFERENT_DEFAULTS`` with the reason.
"""

import argparse
from collections import defaultdict

from privsample.cli import build_parser

SURFACE = {
    "pi": {
        "--epsilon": (None, True), "--delta": (None, True), "--scheme": ("none", False),
        "--tau": (None, False), "--power": (1.0, False), "--max-freq": (None, True),
        "--out": ("-", False),
    },
    "pij": {
        "--epsilon": (None, True), "--delta": (None, True), "--scheme": ("none", False),
        "--tau": (None, False), "--power": (1.0, False), "--max-freq": (None, True),
        "--table": ("alg4", False), "--out": ("-", False),
    },
    "pdfs": {
        "--epsilon": (None, True), "--delta": (None, True), "--scheme": ("none", False),
        "--tau": (None, False), "--power": (1.0, False), "--max-freq": (None, True),
        "--segments-out": (None, True), "--atoms-out": (None, True),
    },
    "sample": {
        "--input": ("-", False), "--aggregate": (False, False), "--scheme": ("ppswor", False),
        "--tau": (None, False), "--power": (1.0, False), "--seed": (None, True),
        "--out": ("-", False),
    },
    "sanitize": {
        "--mode": (None, True), "--input": ("-", False), "--epsilon": (None, True),
        "--delta": (None, True), "--scheme": ("none", False), "--tau": (None, False),
        "--power": (1.0, False), "--max-freq": (None, True), "--table": ("alg4", False),
        "--seed": (None, True), "--out": ("-", False),
    },
    "estimate": {
        "--input": ("-", False), "--epsilon": (None, True), "--delta": (None, True),
        "--scheme": ("none", False), "--tau": (None, False), "--power": (1.0, False),
        "--max-freq": (None, True), "--table": ("alg4", False), "--estimator": ("mle", False),
        "--g-power": (1.0, False), "--select": (None, False),
    },
    "baseline": {
        "baseline": (None, True), "--input": ("-", False), "--epsilon": (None, True),
        "--delta": (None, True), "--scheme": ("none", False), "--tau": (None, False),
        "--power": (1.0, False), "--seed": (None, True), "--out": ("-", False),
    },
    "analyze sweep": {
        "--epsilon": (None, True), "--delta": (None, False), "--scheme": ("ppswor", False),
        "--tau": (None, False), "--power": (1.0, False), "--sweep": ("tau", False),
        "--grid": (None, False), "--methods": ("pws-keys,sbh,sampled-sbh,nonprivate", False),
        "--dist": ("zipf", False), "--n-keys": (100000, False), "--alpha": (1.0, False),
        "--w-max": (10000, False), "--freq-min": (1, False), "--freq-max": (200, False),
        "--input": ("-", False), "--out": ("-", False),
    },
    "analyze nrmse": {
        "--epsilon": (None, True), "--delta": (None, True), "--scheme-kind": ("pps", False),
        "--power": (1.0, False), "--grid": (None, False),
        "--methods": ("pws-freq-mle,sampled-sbh,nonprivate", False), "--dist": ("zipf", False),
        "--n-keys": (100000, False), "--alpha": (1.0, False), "--w-max": (10000, False),
        "--freq-min": (1, False), "--freq-max": (200, False), "--input": ("-", False),
        "--out": ("-", False),
    },
    "analyze concordance": {
        "--epsilon": (None, True), "--delta": (None, True), "--scheme": ("none", False),
        "--tau": (None, False), "--power": (1.0, False), "--max-freq": (None, True),
        "--method": ("pws", False), "--kendall": (False, False), "--dist": ("zipf", False),
        "--n-keys": (100000, False), "--alpha": (1.0, False), "--w-max": (10000, False),
        "--freq-min": (1, False), "--freq-max": (200, False), "--input": ("-", False),
        "--out": ("-", False),
    },
    "analyze moments": {
        "--epsilon": (None, True), "--delta": (None, True), "--scheme": ("none", False),
        "--tau": (None, False), "--power": (1.0, False), "--max-freq": (None, True),
        "--table": ("alg4", False), "--estimator": ("mle", False), "--g-power": (1.0, False),
        "--out": ("-", False),
    },
    "verify-dp": {
        "--epsilon": (None, True), "--delta": (None, True), "--table": (None, True),
        "--kind": ("pij", False),
    },
}

DIFFERENT_DEFAULTS = {
    # sampling is what `sample` does, and a tau sweep needs a sampling family
    "--scheme": {"ppswor": {"sample", "analyze sweep"}},
    # the two analyses compare different method sets
    "--methods": {"pws-freq-mle,sampled-sbh,nonprivate": {"analyze nrmse"}},
    # verify-dp reads a table file; everywhere else --table picks the construction
    "--table": {None: {"verify-dp"}},
}


def _subcommands(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, (*prefix, name))
            return
    yield " ".join(prefix), parser


def _surface():
    return {
        name: {
            (a.option_strings[0] if a.option_strings else a.dest): (a.default, a.required)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
        }
        for name, parser in _subcommands(build_parser())
    }


def test_surface_is_pinned():
    assert _surface() == SURFACE


def test_shared_flags_have_one_default():
    users = defaultdict(lambda: defaultdict(set))
    for name, flags in _surface().items():
        for flag, (default, _) in flags.items():
            users[flag][default].add(name)
    for flag, by_default in users.items():
        exceptions = DIFFERENT_DEFAULTS.get(flag, {})
        usual = {d: names for d, names in by_default.items() if d not in exceptions}
        assert len(usual) <= 1, f"{flag} has defaults {sorted(map(repr, by_default))}"
        for default, names in exceptions.items():
            assert by_default.get(default) == names, flag
