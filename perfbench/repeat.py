"""Run the benchmark once per seed and report each metric's median and spread.

Usage: python3 perfbench/repeat.py --workload W --seeds 1-10 [--seconds S] [--trace 0|1] [--out FILE]

Spread is the distance between the first and third quartile of the runs'
values (``statistics.quantiles(values, n=4)``) as a share of their median;
compare it with each metric's ``bound`` in BENCHMARK.json.  With
``--trace 1`` it prints ``traced_op_s`` and ``tracing_overhead_s`` over
the seeds: one run holds too few ops to resolve the overhead, their median
over seeds is the figure to quote.  ``--out``
adds every run's result and provenance to a JSON file, keyed by workload
(``<workload>.trace`` for traced runs), for a baseline record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        wall = perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        provenance = json.loads(next(l for l in lines if l.startswith("provenance "))[len("provenance "):])
        runs.append({"seed": seed, "wall_s": wall, "result": result, "provenance": provenance})
        shown = "" if args.trace else ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: wall {wall:.1f} s, ops {provenance['samples']['ops']}, "
              f"correct {result['correct']} {shown}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    listed = list(bounds) if args.trace == 0 else ["traced_op_s", "tracing_overhead_s"]
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        if name in listed:
            print(f"{name}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}"
                  f"  bound {bounds.get(name)}")
    print(f"wall per run: max {max(r['wall_s'] for r in runs):.1f} s, "
          f"mean {statistics.mean(r['wall_s'] for r in runs):.1f} s")
    if args.out:
        out = Path(args.out)
        record = json.loads(out.read_text()) if out.is_file() else {}
        record[args.workload + (".trace" if args.trace else "")] = {
            "seconds": args.seconds, "summary": summary, "runs": runs}
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
