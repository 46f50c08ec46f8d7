"""Workload definitions: seeded inputs and the pinned CLI command lines of one op.

Standard library only, so the driver can import it without numpy.  Every
flag the program's outputs depend on is passed explicitly (table, estimator,
scheme, tau, seeds and one shared --max-freq for sanitize and estimate), so
the command lines stay valid when defaults change.  --threads is never
passed.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from pathlib import Path

WORKLOADS = ("release", "tables", "analysis")

EPSILON = "0.1"
DELTA = "0.01"


@dataclass(frozen=True)
class Sizes:
    name: str
    # release: keyed zipf histogram
    release_keys: int
    release_alpha: float
    release_w_max: int
    # --max-freq for sanitize and estimate; at least w_max + 2*ceil(L) + 2
    release_max_freq: int
    # tables: dense public tables
    tables_m: int
    # analysis
    nrmse_keys: int
    nrmse_freq_max: int
    conc_keys: int
    conc_max_freq: int
    sbh_max_freq: int
    sweep_keys: int
    sweep_w_max: int


FULL = Sizes(
    name="full",
    release_keys=200_000, release_alpha=0.8, release_w_max=120, release_max_freq=160,
    tables_m=2000,
    nrmse_keys=200_000, nrmse_freq_max=200,
    conc_keys=100_000, conc_max_freq=1000,
    sbh_max_freq=150,
    sweep_keys=100_000, sweep_w_max=10_000,
)

# One fast op per workload for the harness self-test.
TINY = Sizes(
    name="tiny",
    release_keys=3000, release_alpha=0.8, release_w_max=30, release_max_freq=70,
    tables_m=60,
    nrmse_keys=2000, nrmse_freq_max=20,
    conc_keys=1000, conc_max_freq=40,
    sbh_max_freq=20,
    sweep_keys=1000, sweep_w_max=100,
)

SIZES = {s.name: s for s in (FULL, TINY)}


def make_inputs(workload: str, seed: int, sizes: Sizes, inputs_dir: Path) -> dict:
    """Write the workload's seeded input files; return what the op needs to know.

    For ``release`` the seed draws the key names, the key order and the CLI
    seeds; frequencies follow the zipf rank law, so the frequency counts are
    the same for every seed.  ``tables`` and ``analysis`` take no input files
    and no randomness: their outputs are exact and seed-free.
    """
    spec = {"workload": workload, "seed": seed, "sizes": asdict(sizes)}
    if workload != "release":
        return spec
    rng = random.Random(seed)
    n = sizes.release_keys
    freqs = [max(1, round(sizes.release_w_max * r ** -sizes.release_alpha)) for r in range(1, n + 1)]
    names: set[str] = set()
    while len(names) < n:
        names.add(format(rng.getrandbits(48), "012x"))
    # sorted first: set order depends on the interpreter's hash seed
    keys = sorted(names)
    rng.shuffle(keys)  # which key gets which frequency rank
    pairs = list(zip(keys, freqs))
    rng.shuffle(pairs)  # file order
    hist = inputs_dir / "hist.tsv"
    with open(hist, "w", encoding="utf-8") as fp:
        fp.writelines(f"{k}\t{f}\n" for k, f in pairs)
    spec["histogram"] = str(hist)
    spec["cli_seeds"] = {p: rng.randrange(1, 2**31) for p in ("sample", "keys", "freqs", "baseline")}
    return spec


@dataclass(frozen=True)
class Command:
    argv: list
    reads: tuple = ()   # files the command reads, for formats.bytes_read
    writes: tuple = ()  # files the command writes, for formats.bytes_written
    stdout: str | None = None  # file that receives the command's stdout


def _privacy(delta: str = DELTA) -> list:
    return ["--epsilon", EPSILON, "--delta", delta]


def commands(spec: dict, op_dir: Path) -> list[Command]:
    """The op's CLI commands, in order; outputs land in ``op_dir``."""
    s = Sizes(**spec["sizes"])

    def d(name: str) -> str:
        return str(op_dir / name)

    workload = spec["workload"]
    if workload == "release":
        hist, seeds = spec["histogram"], spec["cli_seeds"]
        scheme = ["--scheme", "ppswor", "--tau", "0.5"]
        m = ["--max-freq", str(s.release_max_freq)]
        return [
            Command(["sample", "--input", hist, *scheme, "--seed", str(seeds["sample"]),
                     "--out", d("sample.tsv")], (hist,), (d("sample.tsv"),)),
            Command(["sanitize", "--mode", "keys", "--input", d("sample.tsv"), *_privacy(), *scheme,
                     *m, "--seed", str(seeds["keys"]), "--out", d("keys.txt")],
                    (d("sample.tsv"),), (d("keys.txt"),)),
            Command(["sanitize", "--mode", "freqs", "--table", "alg5", "--input", d("sample.tsv"),
                     *_privacy(), *scheme, *m, "--seed", str(seeds["freqs"]), "--out", d("tokens.tsv")],
                    (d("sample.tsv"),), (d("tokens.tsv"),)),
            Command(["estimate", "--input", d("tokens.tsv"), *_privacy(), *scheme, *m,
                     "--table", "alg5", "--estimator", "mle"],
                    (d("tokens.tsv"),), stdout=d("estimate.txt")),
            Command(["baseline", "sampled-sbh", "--input", hist, *_privacy(), *scheme,
                     "--seed", str(seeds["baseline"]), "--out", d("baseline.tsv")],
                    (hist,), (d("baseline.tsv"),)),
        ]
    if workload == "tables":
        scheme = ["--scheme", "ppswor", "--tau", "0.01"]
        m = ["--max-freq", str(s.tables_m)]
        out = []
        for table, estimator in (("alg5", "mle"), ("alg4", "unbiased")):
            csv = d(f"pij_{table}.csv")
            out += [
                Command(["pij", *_privacy(), *scheme, *m, "--table", table, "--out", csv], writes=(csv,)),
                Command(["verify-dp", *_privacy(), "--table", csv, "--kind", "pij"], (csv,),
                        stdout=d(f"verify_{table}.txt")),
                Command(["analyze", "moments", *_privacy(), *scheme, *m, "--table", table,
                         "--estimator", estimator, "--out", d(f"moments_{table}.csv")],
                        writes=(d(f"moments_{table}.csv"),)),
            ]
        return out
    if workload == "analysis":
        return [
            Command(["analyze", "nrmse", *_privacy(), "--scheme-kind", "pps", "--dist", "uniform",
                     "--n-keys", str(s.nrmse_keys), "--freq-min", "1", "--freq-max", str(s.nrmse_freq_max),
                     "--out", d("nrmse.csv")], writes=(d("nrmse.csv"),)),
            Command(["analyze", "concordance", *_privacy(), "--method", "pws", "--scheme", "none",
                     "--max-freq", str(s.conc_max_freq), "--kendall", "--dist", "uniform",
                     "--n-keys", str(s.conc_keys), "--freq-min", "1", "--freq-max", str(s.conc_max_freq),
                     "--out", d("conc_pws.csv")], writes=(d("conc_pws.csv"),), stdout=d("kendall.txt")),
            Command(["analyze", "concordance", *_privacy(), "--method", "sbh", "--scheme", "none",
                     "--max-freq", str(s.sbh_max_freq), "--out", d("conc_sbh.csv")],
                    writes=(d("conc_sbh.csv"),)),
            Command(["analyze", "sweep", *_privacy("0.001"), "--sweep", "tau", "--scheme", "ppswor",
                     "--dist", "zipf", "--n-keys", str(s.sweep_keys), "--alpha", "1",
                     "--w-max", str(s.sweep_w_max), "--out", d("sweep.csv")], writes=(d("sweep.csv"),)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def items_per_op(spec: dict) -> int:
    """Items one op carries through, the numerator of keys_per_s.

    Input keys on ``release``; keys of the histograms analysed on
    ``analysis``; published table rows on ``tables``, which has no keys.
    """
    s = Sizes(**spec["sizes"])
    if spec["workload"] == "release":
        return s.release_keys
    if spec["workload"] == "tables":
        return 2 * (s.tables_m + 1)
    return s.nrmse_keys + s.conc_keys + s.sweep_keys
