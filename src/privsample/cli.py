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


def _add_privacy_flags(parser, delta_required=True):
    parser.add_argument("--epsilon", type=float, required=True, help="privacy parameter epsilon (> 0)")
    parser.add_argument("--delta", type=float, required=delta_required,
                        help="privacy parameter delta in (0, 1]")


_SCHEME_FLAGS = ("scheme", "tau", "power")


def _add_scheme_flags(parser, default="none"):
    parser.add_argument(
        "--scheme", choices=["none", "ppswor", "pps"], default=default, help="sampling scheme"
    )
    parser.add_argument("--tau", type=float, default=None, help="sampling threshold (tau >= 0)")
    parser.add_argument("--power", type=float, default=1.0, help="frequency weight exponent in [0, 2]")


def _max_freq(text: str) -> int:
    """The --max-freq type: an integer >= 1, so that argparse makes any other a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"max_frequency must be >= 1, got {value}")
    return value


def _add_table_flag(parser):
    parser.add_argument("--table", choices=["alg4", "alg5"], default="alg4",
                        help="integer-token table or discretized density table")


def _add_estimator_flags(parser):
    _add_table_flag(parser)
    parser.add_argument("--estimator", choices=["mle", "unbiased"], default="mle")
    parser.add_argument("--g-power", type=float, default=1.0)


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


_DIST_FLAGS = ("dist", "n_keys", "alpha", "w_max", "freq_min", "freq_max", "input")

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


def _add_dist_flags(parser):
    parser.add_argument("--dist", choices=["zipf", "uniform", "file"], default="zipf")
    parser.add_argument("--n-keys", type=int, default=100_000)
    parser.add_argument("--alpha", type=float, default=1.0, help="zipf exponent")
    parser.add_argument("--w-max", type=int, default=10_000, help="zipf top frequency")
    parser.add_argument("--freq-min", type=int, default=1)
    parser.add_argument("--freq-max", type=int, default=200)
    parser.add_argument("--input", default="-", help="histogram TSV for --dist file")


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


def _pi_bands(pi: np.ndarray) -> TokenBands:
    """The key-reporting law as bands: token 1 (reported) with mass pi_i, token 0 otherwise."""
    return TokenBands(atom0=1.0 - pi, first=np.ones(len(pi), dtype=np.int64),
                      rows=pi[:, None], n_tokens=1)


def _verify_line(report, params) -> str:
    return (
        f"worst_divergence={formats.fmt(report.worst_divergence)} "
        f"pair={report.worst_pair[0]},{report.worst_pair[1]} direction={report.direction} "
        f"delta={formats.fmt(params.delta)}"
    )


def _require_dp(law: TokenBands, params: PrivacyParams) -> None:
    """A data error unless ``law`` passes the DP oracle.

    ``verify_dp`` itself raises on a row that is not a probability vector.
    """
    report = verify_dp(law, params)
    if not report.ok:
        raise ValueError(f"the release law fails verify-dp: {_verify_line(report, params)}")


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
        _require_dp(_pi_bands(rv.pi), params)
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


def _coeffs_and_moments(args):
    """The estimate coefficients chosen by --table/--estimator/--g-power, and their moments."""
    params, scheme = _params(args), _scheme(args)
    if args.estimator == "unbiased" and args.table == "alg5":
        raise UsageError("--estimator unbiased needs the integer-token table (--table alg4)")
    g = _usage(g_power, args.g_power, flag="--g-power")
    table = _build_table(params, scheme, args.max_freq, args.table)
    if args.estimator == "mle":
        coeffs = mle_coeffs(table, table.reporting, g)
    else:
        coeffs = unbiased_coeffs(table, g)
    moments = moments_by_frequency(table, coeffs, g)
    if args.estimator == "unbiased":
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
    coeffs, _ = _coeffs_and_moments(args)
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
    _, moment_table = _coeffs_and_moments(args)
    with _open_out(args.out) as fp:
        formats.write_moments_csv(fp, moment_table)
    return 0


def cmd_verify_dp(args) -> int:
    params = _params(args)
    with _open_in(args.table) as fp:
        if args.kind == "pi":
            bands = _pi_bands(formats.read_pi_csv(fp))
        else:
            bands = formats.read_pij_csv(fp)
    report = verify_dp(bands, params)
    print(f"verify-dp {'pass' if report.ok else 'FAIL'} {_verify_line(report, params)}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privsample",
        description="Private post-processing of weighted key-frequency samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pi", help="per-frequency reporting probability table (CSV i,q_i,pi_i,p_i)")
    _add_privacy_flags(p)
    _add_scheme_flags(p)
    p.add_argument("--max-freq", type=_max_freq, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(parser=p, func=cmd_pi)

    p = sub.add_parser("pij", help="integer-token frequency table (CSV i,j,pi_ij)")
    _add_privacy_flags(p)
    _add_scheme_flags(p)
    p.add_argument("--max-freq", type=_max_freq, required=True)
    _add_table_flag(p)
    p.add_argument("--out", default="-")
    p.set_defaults(parser=p, func=cmd_pij)

    p = sub.add_parser("pdfs", help="piecewise densities (CSV segments + atoms)")
    _add_privacy_flags(p)
    _add_scheme_flags(p)
    p.add_argument("--max-freq", type=_max_freq, required=True)
    p.add_argument("--segments-out", required=True, help="CSV i,left,right,density")
    p.add_argument("--atoms-out", required=True, help="CSV i,atom0")
    p.set_defaults(parser=p, func=cmd_pdfs)

    p = sub.add_parser("sample", help="threshold-sample a histogram (TSV key<TAB>frequency)")
    p.add_argument("--input", default="-", help="histogram TSV, or element stream with --aggregate")
    p.add_argument("--aggregate", action="store_true", help="input is one key per line")
    _add_scheme_flags(p, default="ppswor")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(parser=p, func=cmd_sample)

    p = sub.add_parser("sanitize", help="sanitize a weighted sample privately")
    p.add_argument("--mode", choices=["keys", "freqs"], required=True)
    p.add_argument("--input", default="-", help="sample TSV key<TAB>frequency")
    _add_privacy_flags(p)
    _add_scheme_flags(p)
    p.add_argument("--max-freq", type=_max_freq, required=True,
                   help="public table range; a sampled frequency above it is an error")
    _add_table_flag(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(parser=p, func=cmd_sanitize)

    p = sub.add_parser("estimate", help="linear statistic from a sanitized sample")
    p.add_argument("--input", default="-", help="sanitized TSV key<TAB>token")
    _add_privacy_flags(p)
    _add_scheme_flags(p)
    p.add_argument("--max-freq", type=_max_freq, required=True)
    _add_estimator_flags(p)
    p.add_argument("--select", default=None, help="file of selected keys, one per line")
    p.set_defaults(parser=p, func=cmd_estimate)

    p = sub.add_parser("baseline", help="stability-histogram baseline sanitizers")
    p.add_argument("baseline", choices=["sbh", "sampled-sbh"])
    p.add_argument("--input", default="-", help="histogram TSV key<TAB>frequency")
    _add_privacy_flags(p)
    _add_scheme_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(parser=p, func=cmd_baseline)

    p = sub.add_parser("analyze", help="exact sweeps and comparisons")
    asub = p.add_subparsers(dest="analysis", required=True)

    pa = asub.add_parser("sweep", help="expected reported fraction over a grid")
    _add_privacy_flags(pa, delta_required=False)
    _add_scheme_flags(pa, default="ppswor")
    pa.add_argument("--sweep", choices=["delta", "tau"], default="tau")
    pa.add_argument("--grid", default=None, help="comma-separated grid values")
    pa.add_argument("--methods", default=",".join(REPORTING_METHODS))
    _add_dist_flags(pa)
    pa.add_argument("--out", default="-")
    pa.set_defaults(parser=pa, func=cmd_analyze_sweep)

    pa = asub.add_parser("nrmse", help="estimation error across sampling rates")
    _add_privacy_flags(pa)
    pa.add_argument("--scheme-kind", choices=["ppswor", "pps"], default="pps",
                    help="pps makes tau=1 exactly no-sampling")
    pa.add_argument("--power", type=float, default=1.0)
    pa.add_argument("--grid", default=None)
    pa.add_argument("--methods", default=",".join(NRMSE_METHODS))
    _add_dist_flags(pa)
    pa.add_argument("--out", default="-")
    pa.set_defaults(parser=pa, func=cmd_analyze_nrmse)

    pa = asub.add_parser("concordance", help="pairwise concordance probabilities")
    _add_privacy_flags(pa)
    _add_scheme_flags(pa)
    pa.add_argument("--max-freq", type=_max_freq, required=True)
    pa.add_argument("--method", choices=["pws", "sbh"], default="pws")
    pa.add_argument("--kendall", action="store_true",
                    help="also print the expected rank correlation for --dist "
                         "(averaged over truth-distinct key pairs; ties in true "
                         "frequency are excluded from the normalizer)")
    _add_dist_flags(pa)
    pa.add_argument("--out", default="-")
    pa.set_defaults(parser=pa, func=cmd_analyze_concordance)

    pa = asub.add_parser("moments", help="per-frequency estimate moments (CSV)")
    _add_privacy_flags(pa)
    _add_scheme_flags(pa)
    pa.add_argument("--max-freq", type=_max_freq, required=True)
    _add_estimator_flags(pa)
    pa.add_argument("--out", default="-")
    pa.set_defaults(parser=pa, func=cmd_analyze_moments)

    p = sub.add_parser("verify-dp", help="privacy oracle over an exported table")
    _add_privacy_flags(p)
    p.add_argument("--table", required=True, help="CSV exported by pi or pij")
    p.add_argument("--kind", choices=["pi", "pij"], default="pij")
    p.set_defaults(parser=p, func=cmd_verify_dp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Overflow and NaN print as inf/nan, and _warn_if_noise reports them
        # in its one line; numpy's own warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))  # exits 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
