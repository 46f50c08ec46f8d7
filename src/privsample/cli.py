"""Batch command-line surface.

Every subcommand is deterministic: identical flags, inputs and seed give
byte-identical outputs.  Randomized subcommands require --seed explicitly.
A flag set away from its default where it cannot change the output is a
usage error.  Exit status: 0 on success, 1 on data errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from . import formats
from .estimators import (
    estimate_statistic,
    g_power,
    mle_coeffs,
    moments_by_frequency,
    unbiased_coeffs,
)
from .experiments import (
    DELTA_GRID_DEFAULT,
    NRMSE_METHODS,
    REPORTING_METHODS,
    TAU_GRID_DEFAULT,
    _method_names,
    nrmse_experiment,
    run_sweep,
    uniform_histogram,
    zipf_histogram,
)
from .frequencies import compute_pdfs, compute_pij, discretize_pdfs, sanitize_frequencies
from .keys import compute_pi, sanitize_keys
from .ordinal import concordance_matrix, expected_kendall_tau
from .privacy import PrivacyParams, TokenBands, verify_dp
from .sampling import FrequencyHistogram, SamplingScheme, WeightedSample, aggregate_elements, draw_sample
from .sbh import SbhConfig, sampled_sbh, sbh_concordance_prob


class UsageError(ValueError):
    """Invalid flag combination; maps to exit status 2."""


def _max_freq(text: str) -> int:
    """The --max-freq type: an integer >= 1, so that argparse makes any other a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"max_frequency must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    """The --seed type: an integer in [0, 2**64), so that argparse makes any other a usage error."""
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {value}")
    return value


# The argparse keywords of each flag that several subcommands share.
_FLAGS = {
    "--epsilon": dict(type=float, required=True, help="privacy parameter epsilon (> 0)"),
    "--delta": dict(type=float, required=True, help="privacy parameter delta in (0, 1]"),
    "--scheme": dict(choices=["none", "ppswor", "pps"], default="none", help="sampling scheme"),
    "--tau": dict(type=float, help="sampling threshold (tau >= 0)"),
    "--power": dict(type=float, default=1.0, help="frequency weight exponent in [0, 2]"),
    "--max-freq": dict(type=_max_freq, required=True),
    "--table": dict(choices=["alg4", "alg5"], default="alg4",
                    help="integer-token table or discretized density table"),
    "--estimator": dict(choices=["mle", "unbiased"], default="mle"),
    "--g-power": dict(type=float, default=1.0),
    "--dist": dict(choices=["zipf", "uniform", "file"], default="zipf"),
    "--n-keys": dict(type=int, default=100_000),
    "--alpha": dict(type=float, default=1.0, help="zipf exponent"),
    "--w-max": dict(type=int, default=10_000, help="zipf top frequency"),
    "--freq-min": dict(type=int, default=1),
    "--freq-max": dict(type=int, default=200),
    "--input": dict(default="-", help="histogram TSV for --dist file"),
    "--seed": dict(type=_seed, required=True, help="64-bit secret, fresh for each release"),
    "--grid": dict(default=None),
    "--methods": dict(default=",".join(REPORTING_METHODS)),
    "--out": dict(default="-"),
}

_PRIVACY = ("--epsilon", "--delta")
_SCHEME = ("--scheme", "--tau", "--power")
_ESTIMATOR = ("--table", "--estimator", "--g-power")
_DIST = ("--dist", "--n-keys", "--alpha", "--w-max", "--freq-min", "--freq-max", "--input")

# the dests that _reject reads, as argparse names them
_SCHEME_FLAGS, _DIST_FLAGS = (tuple(flag[2:].replace("-", "_") for flag in group)
                              for group in (_SCHEME, _DIST))


def _reject(args, why: str, *dests: str) -> None:
    """A usage error for each flag in ``dests`` set to anything but its parser default."""
    for dest in dests:
        if getattr(args, dest) != args.parser.get_default(dest):
            raise UsageError(f"--{dest.replace('_', '-')} {why}")


def _usage(build, *values, flag=None):
    """``build(*values)`` for values taken from flags; a ValueError becomes a usage error.

    The message is prefixed with ``flag`` when one is given.
    """
    try:
        return build(*values)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}" if flag else str(exc)) from exc


def _params(args) -> PrivacyParams:
    return _usage(PrivacyParams, args.epsilon, args.delta)


def _scheme(args) -> SamplingScheme:
    if args.scheme == "none":
        _reject(args, "is meaningless with --scheme none", "tau", "power")
        return SamplingScheme.none()
    if args.tau is None:
        raise UsageError(f"--scheme {args.scheme} requires --tau")
    return _usage(SamplingScheme, args.scheme, args.tau, args.power)


def _open_out(path: str):
    # never close the process streams
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _open_in(path: str):
    if path == "-":
        return contextlib.nullcontext(sys.stdin)
    return open(path, "r", encoding="utf-8")


def _build_table(params, scheme, max_freq, which: str):
    if which == "alg4":
        return compute_pij(params, scheme, max_freq)
    return discretize_pdfs(compute_pdfs(params, scheme, max_freq))


# The --dist group flags each distribution does not read.
_DIST_UNREAD = {
    "zipf": ("freq_min", "freq_max", "input"),
    "uniform": ("alpha", "w_max", "input"),
    "file": ("n_keys", "alpha", "w_max", "freq_min", "freq_max"),
}


def _dist_histogram(args) -> FrequencyHistogram:
    _reject(args, f"is meaningless with --dist {args.dist}", *_DIST_UNREAD[args.dist])
    if args.dist == "zipf":
        return _usage(zipf_histogram, args.n_keys, args.alpha, args.w_max)
    if args.dist == "uniform":
        return _usage(uniform_histogram, args.n_keys, args.freq_min, args.freq_max)
    with _open_in(args.input) as fp:
        return FrequencyHistogram.from_keys(formats.read_keyed_tsv(fp))


def cmd_pi(args) -> int:
    rv = compute_pi(_params(args), _scheme(args), args.max_freq)
    with _open_out(args.out) as fp:
        formats.write_pi_csv(fp, rv)
    return 0


def cmd_pij(args) -> int:
    table = _build_table(_params(args), _scheme(args), args.max_freq, args.table)
    with _open_out(args.out) as fp:
        formats.write_pij_csv(fp, table)
    return 0


def cmd_pdfs(args) -> int:
    family = compute_pdfs(_params(args), _scheme(args), args.max_freq)
    with _open_out(args.segments_out) as fp:
        formats.write_pdf_segments_csv(fp, family)
    with _open_out(args.atoms_out) as fp:
        formats.write_pdf_atoms_csv(fp, family)
    return 0


def cmd_sample(args) -> int:
    scheme = _scheme(args)
    with _open_in(args.input) as fp:
        if args.aggregate:
            by_key = aggregate_elements(formats.read_element_stream(fp))
        else:
            by_key = formats.read_keyed_tsv(fp)
    sample = draw_sample(by_key, scheme, args.seed)
    with _open_out(args.out) as fp:
        formats.write_keyed_tsv(fp, sample.pairs)
    return 0


def _verify_line(report) -> str:
    return (
        f"worst_divergence={formats.fmt(report.worst_divergence)} "
        f"pair={report.worst_pair[0]},{report.worst_pair[1]} direction={report.direction} "
        f"delta={formats.fmt(report.delta)}"
    )


def _require_dp(law: TokenBands, params: PrivacyParams) -> None:
    """A data error unless ``law`` passes the DP oracle.

    ``verify_dp`` itself raises on a row that is not a probability vector.
    """
    report = verify_dp(law, params)
    if not report.ok:
        raise ValueError(f"the release law fails verify-dp: {_verify_line(report)}")


def cmd_sanitize(args) -> int:
    params, scheme = _params(args), _scheme(args)
    if args.mode == "keys":
        _reject(args, "is meaningless with --mode keys, which releases no tokens", "table")
    with _open_in(args.input) as fp:
        sample = WeightedSample(pairs=formats.read_keyed_tsv(fp), scheme=scheme)
    # the table range is the public --max-freq, never the sample's own maximum;
    # the law is checked before --out is opened, so a failing one writes nothing
    if args.mode == "keys":
        rv = compute_pi(params, scheme, args.max_freq)
        _require_dp(rv, params)
        kept = sanitize_keys(sample, rv, args.seed)
        with _open_out(args.out) as fp:
            formats.write_key_lines(fp, kept)
    else:
        table = _build_table(params, scheme, args.max_freq, args.table)
        _require_dp(table, params)
        sanitized = sanitize_frequencies(sample, table, args.seed)
        with _open_out(args.out) as fp:
            formats.write_keyed_tsv(fp, sanitized)
    return 0


def _coeffs_and_moments(args, moments_wanted: bool):
    """The estimate coefficients chosen by --table/--estimator/--g-power, and their moments
    when wanted or unbiased (``_warn_if_noise`` checks those), None otherwise."""
    params, scheme = _params(args), _scheme(args)
    unbiased = args.estimator == "unbiased"
    if unbiased and args.table == "alg5":
        raise UsageError("--estimator unbiased needs the integer-token table (--table alg4)")
    g = _usage(g_power, args.g_power, flag="--g-power")
    table = _build_table(params, scheme, args.max_freq, args.table)
    coeffs = unbiased_coeffs(table, g) if unbiased else mle_coeffs(table, table, g)
    if not (moments_wanted or unbiased):
        return coeffs, None
    moments = moments_by_frequency(table, coeffs, g)
    if unbiased:
        _warn_if_noise(moments)
    return coeffs, moments


def _warn_if_noise(moments) -> None:
    """Warn on stderr when the unbiased coefficients miss g(i) for some row.

    The float solve is not at fault: it agrees with 120- and 300-digit
    solves of the same table.  The exact coefficients themselves grow
    without bound and alternate in sign past a few dozen frequencies on
    some tables, so no float vector reproduces g(i) and the estimate's
    variance explodes.
    """
    target = moments.g_values[1:]
    # written as `not <=` so that NaN and inf count as misses
    misses = ~(np.abs(moments.bias[1:]) <= 1e-6 * np.maximum(1.0, np.abs(target)))
    if misses.any():
        i = int(np.argmax(misses)) + 1
        print(
            f"warning: the unbiased coefficients do not reproduce g({i}) at frequency {i}: "
            "the exact coefficients explode and alternate in sign, so estimates are "
            "dominated by their variance; lower --max-freq",
            file=sys.stderr,
        )


def cmd_estimate(args) -> int:
    coeffs, _ = _coeffs_and_moments(args, moments_wanted=False)
    with _open_in(args.input) as fp:
        sanitized = formats.read_keyed_tsv(fp)
    selection = None
    if args.select:
        with _open_in(args.select) as fp:
            selection = set(formats.read_element_stream(fp))
    value = estimate_statistic(sanitized, coeffs, selection)
    print(formats.fmt(value))
    return 0


def cmd_baseline(args) -> int:
    config = SbhConfig(_params(args))
    if args.baseline == "sbh":
        _reject(args, "is meaningless with baseline sbh, which samples nothing", *_SCHEME_FLAGS)
    # sbh is sampled-sbh under the default scheme none, which keeps every key
    scheme = _scheme(args)
    with _open_in(args.input) as fp:
        by_key = formats.read_keyed_tsv(fp)
    out = sampled_sbh(by_key, config, scheme, args.seed)
    with _open_out(args.out) as fp:
        formats.write_keyed_tsv(fp, out, float_values=True)
    return 0


def _grid(args, default: tuple) -> tuple:
    if args.grid is None:
        return default
    return _usage(lambda text: tuple(float(x) for x in text.split(",")), args.grid, flag="--grid")


def _tau_points(args, kind: str) -> list:
    """(tau, params, scheme) at each --grid threshold, for the sampling family ``kind``."""
    params = _params(args)
    return [(tau, params, _usage(SamplingScheme, kind, tau, args.power))
            for tau in _grid(args, TAU_GRID_DEFAULT)]


def _methods(args, known: tuple) -> tuple:
    """The --methods names, checked by the library's rule before any histogram is read."""
    return _usage(_method_names, args.methods.split(","), known, flag="--methods")


def cmd_analyze_sweep(args) -> int:
    methods = _methods(args, REPORTING_METHODS)
    if args.sweep == "tau":
        if args.scheme == "none":
            raise UsageError("--sweep tau needs --scheme ppswor or pps")
        _reject(args, "is meaningless with --sweep tau, which takes its thresholds from --grid",
                "tau")
        if args.delta is None:
            raise UsageError("--sweep tau requires --delta")
        points = _tau_points(args, args.scheme)
    else:
        _reject(args, "is meaningless with --sweep delta, which takes its deltas from --grid",
                "delta")
        scheme = _scheme(args)
        points = [(delta, _usage(PrivacyParams, args.epsilon, delta), scheme)
                  for delta in _grid(args, DELTA_GRID_DEFAULT)]
    rows = run_sweep(_dist_histogram(args), args.sweep, points, methods)
    with _open_out(args.out) as fp:
        formats.write_sweep_csv(fp, rows)
    return 0


def cmd_analyze_nrmse(args) -> int:
    methods = _methods(args, NRMSE_METHODS)
    points = _tau_points(args, args.scheme_kind)
    rows = nrmse_experiment(_dist_histogram(args), points, methods)
    with _open_out(args.out) as fp:
        formats.write_sweep_csv(fp, rows)
    return 0


def cmd_analyze_concordance(args) -> int:
    params = _params(args)
    m = args.max_freq
    if args.method == "sbh":
        _reject(args, "is meaningless with --method sbh, which samples nothing", *_SCHEME_FLAGS)
    if args.kendall:
        hist = _dist_histogram(args)
        if hist.max_frequency > m:
            raise ValueError("--kendall distribution exceeds --max-freq")
    else:
        _reject(args, "is only read with --kendall", *_DIST_FLAGS)
    if args.method == "pws":
        conc = concordance_matrix(_build_table(params, _scheme(args), m, "alg5"))
    else:
        config = SbhConfig(params)
        conc = np.full((m + 1, m + 1), np.nan)  # only the pairs i2 < i1 are written
        for i1 in range(2, m + 1):
            conc[i1, 1:i1] = [sbh_concordance_prob(config, i1, i2) for i2 in range(1, i1)]
    if args.kendall:
        tau = expected_kendall_tau(hist, conc)
    with _open_out(args.out) as fp:
        formats.write_concordance_csv(fp, conc)
    if args.kendall:
        print(f"kendall_tau,{formats.fmt(tau)}")
    return 0


def cmd_analyze_moments(args) -> int:
    _, moment_table = _coeffs_and_moments(args, moments_wanted=True)
    with _open_out(args.out) as fp:
        formats.write_moments_csv(fp, moment_table)
    return 0


def cmd_verify_dp(args) -> int:
    params = _params(args)
    with _open_in(args.table) as fp:
        bands = formats.read_pi_csv(fp) if args.kind == "pi" else formats.read_pij_csv(fp)
    report = verify_dp(bands, params)
    print(f"verify-dp {'pass' if report.ok else 'FAIL'} {_verify_line(report)}")
    return 0 if report.ok else 1


def _command(sub, name, func, help, *flags):
    """Add subcommand ``name``, run by ``func``, with ``flags`` in order.

    A flag is a name or a (name, overrides) pair; its keywords are its
    ``_FLAGS`` entry, if any, updated by the overrides.
    """
    parser = sub.add_parser(name, help=help)
    for flag in flags:
        flag, overrides = (flag, {}) if isinstance(flag, str) else flag
        parser.add_argument(flag, **{**_FLAGS.get(flag, {}), **overrides})
    parser.set_defaults(parser=parser, func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privsample",
        description="Private post-processing of weighted key-frequency samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # `sample` and `analyze sweep` draw a sample unless told otherwise
    sampling = ("--scheme", dict(default="ppswor")), "--tau", "--power"

    _command(sub, "pi", cmd_pi, "per-frequency reporting probability table (CSV i,q_i,pi_i,p_i)",
             *_PRIVACY, *_SCHEME, "--max-freq", "--out")
    _command(sub, "pij", cmd_pij, "integer-token frequency table (CSV i,j,pi_ij)",
             *_PRIVACY, *_SCHEME, "--max-freq", "--table", "--out")
    _command(sub, "pdfs", cmd_pdfs, "piecewise densities (CSV segments + atoms)",
             *_PRIVACY, *_SCHEME, "--max-freq",
             ("--segments-out", dict(required=True, help="CSV i,left,right,density")),
             ("--atoms-out", dict(required=True, help="CSV i,atom0")))
    _command(sub, "sample", cmd_sample, "threshold-sample a histogram (TSV key<TAB>frequency)",
             ("--input", dict(help="histogram TSV, or element stream with --aggregate")),
             ("--aggregate", dict(action="store_true", help="input is one key per line")),
             *sampling, "--seed", "--out")
    _command(sub, "sanitize", cmd_sanitize, "sanitize a weighted sample privately",
             ("--mode", dict(choices=["keys", "freqs"], required=True)),
             ("--input", dict(help="sample TSV key<TAB>frequency")), *_PRIVACY, *_SCHEME,
             ("--max-freq",
              dict(help="public table range; a sampled frequency above it is an error")),
             "--table", "--seed", "--out")
    _command(sub, "estimate", cmd_estimate, "linear statistic from a sanitized sample",
             ("--input", dict(help="sanitized TSV key<TAB>token")), *_PRIVACY, *_SCHEME,
             "--max-freq", *_ESTIMATOR,
             ("--select", dict(help="file of selected keys, one per line")))
    _command(sub, "baseline", cmd_baseline, "stability-histogram baseline sanitizers",
             ("baseline", dict(choices=["sbh", "sampled-sbh"])),
             ("--input", dict(help="histogram TSV key<TAB>frequency")), *_PRIVACY, *_SCHEME,
             "--seed", "--out")

    asub = sub.add_parser("analyze", help="exact sweeps and comparisons").add_subparsers(
        dest="analysis", required=True)
    _command(asub, "sweep", cmd_analyze_sweep, "expected reported fraction over a grid",
             "--epsilon", ("--delta", dict(required=False)), *sampling,
             ("--sweep", dict(choices=["delta", "tau"], default="tau")),
             ("--grid", dict(help="comma-separated grid values")), "--methods", *_DIST, "--out")
    _command(asub, "nrmse", cmd_analyze_nrmse, "estimation error across sampling rates",
             *_PRIVACY,
             ("--scheme-kind", dict(choices=["ppswor", "pps"], default="pps",
                                    help="pps makes tau=1 exactly no-sampling")),
             ("--power", dict(help=None)), "--grid",
             ("--methods", dict(default=",".join(NRMSE_METHODS))), *_DIST, "--out")
    _command(asub, "concordance", cmd_analyze_concordance, "pairwise concordance probabilities",
             *_PRIVACY, *_SCHEME, "--max-freq",
             ("--method", dict(choices=["pws", "sbh"], default="pws")),
             ("--kendall", dict(action="store_true",
                                help="also print the expected rank correlation for --dist "
                                     "(averaged over truth-distinct key pairs; ties in true "
                                     "frequency are excluded from the normalizer)")),
             *_DIST, "--out")
    _command(asub, "moments", cmd_analyze_moments, "per-frequency estimate moments (CSV)",
             *_PRIVACY, *_SCHEME, "--max-freq", *_ESTIMATOR, "--out")

    _command(sub, "verify-dp", cmd_verify_dp, "privacy oracle over an exported table",
             *_PRIVACY,
             ("--table", dict(choices=None, default=None, required=True,
                              help="CSV exported by pi or pij")),
             ("--kind", dict(choices=["pi", "pij"], default="pij")))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Overflow and NaN print as inf/nan, and _warn_if_noise reports them
        # in its one line; numpy's own warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except UsageError as exc:
        args.parser.error(str(exc))  # the subcommand's usage; exits 2
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
