"""privsample benchmark driver.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload release|tables|analysis --seed N --seconds S --trace 0|1

The driver writes the workload's inputs from the seed, warms the import
caches once, then starts one worker process per op, one at a time, as long
as one more op is expected to end within ``--seconds``.  Each worker
imports ``privsample.cli`` from the checkout's ``src`` and runs the op's CLI
commands in-process, so a cache kept in memory cannot outlive an op, as it
cannot for a CLI user.  BLAS is pinned to one thread.  Times are the
worker's CPU time (see worker.py); the medians of the wall times are printed
with the provenance.  The last line of
stdout is one JSON object: end-to-end metrics with ``--trace 0``;
per-layer metrics with ``--trace 1``, where ops alternate untraced and
traced so the tracing overhead is measured in the same run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import SIZES, WORKLOADS, items_per_op, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 150


def git_sha(root: Path) -> str:
    """HEAD of the checkout; 'unknown' when the checkout is not itself a git repository."""
    # the ceiling stops git from reporting an enclosing repository's HEAD
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(spec: dict, work: Path, tag: str, env: dict) -> dict:
    """Run one worker to completion; a crash or timeout is a failed op."""
    spec_path, result_path = work / f"{tag}.spec.json", work / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"worker timed out after {WORKER_TIMEOUT_S} s"]}
    if proc.returncode != 0 or not result_path.is_file():
        return {"errors": [f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    return json.loads(result_path.read_text())


def run_ops(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            sizes: str = "full") -> tuple[dict, list]:
    """Make the inputs, then run ops within ``seconds``; at least one, or two when tracing."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    spec = make_inputs(workload, seed, SIZES[sizes], inputs)
    spec["root"] = str(ROOT)
    env = worker_env(ROOT)
    warm = run_worker({**spec, "import_only": True}, work, "warmup", env)
    if warm.get("errors"):
        return spec, [{**warm, "traced": False}]
    ops, walls = [], []
    start = perf_counter()
    # an op starts only if one more, at the median op's wall time so far, ends within ``seconds``
    while len(ops) < 1 + trace or perf_counter() - start + statistics.median(walls) <= seconds:
        k = len(ops)
        op_dir = work / f"op{k}"
        t0 = perf_counter()
        op = run_worker({**spec, "op_dir": str(op_dir), "trace": trace and k % 2 == 1},
                        work, f"op{k}", env)
        walls.append(perf_counter() - t0)
        op["traced"] = trace and k % 2 == 1
        ops.append(op)
        shutil.rmtree(op_dir, ignore_errors=True)
    return spec, ops


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(spec: dict, ops: list) -> dict:
    op_s = _median([op["op_s"] for op in ops if "op_s" in op])
    return {
        "setup_s": (_median([op["setup_s"] for op in ops if "setup_s" in op]), "s"),
        "op_s.p50": (op_s, "s"),
        "keys_per_s": (items_per_op(spec) / op_s, "1/s"),
        "peak_rss_mb": (_median([op["peak_rss_mb"] for op in ops if "peak_rss_mb" in op]), "MB"),
    }


def per_layer(ops: list, names: list) -> tuple[dict, float]:
    """Per-op means over traced ops; returns the metrics and the decomposition residual."""
    traced = [op for op in ops if op["traced"] and "layers" in op]
    plain = [op["op_s"] for op in ops if not op["traced"] and "op_s" in op]
    n = max(1, len(traced))
    values = dict.fromkeys(names, 0.0)
    for op in traced:
        for name, v in op["layers"]["self_s"].items():
            values[f"{name}.self_s"] = values.get(f"{name}.self_s", 0.0) + v / n
        for name, v in op["layers"]["calls"].items():
            values[f"{name}.calls"] = values.get(f"{name}.calls", 0.0) + v / n
        for name, v in op["counts"].items():
            values[name] = values.get(name, 0.0) + v / n
        values["cli.self_s"] = values.get("cli.self_s", 0.0) + (op["op_s"] - op["layers"]["top_s"]) / n
    cells = values.pop("frequencies.table_cells", 0.0)
    values["frequencies.nonzero_ratio"] = values.pop("frequencies.table_nonzero", 0.0) / cells if cells else 0.0
    traced_op_s = sum(op["op_s"] for op in traced) / n
    values["traced_op_s"] = traced_op_s
    values["tracing_overhead_s"] = _median([op["op_s"] for op in traced]) - _median(plain)
    parts = sum(v for k, v in values.items() if k.endswith(".self_s"))
    return values, parts - traced_op_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "privsample" / "cli.py").is_file():
        print(f"error: no privsample sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker, finally cleans up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        spec, ops = run_ops(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run is using it

    failed = [op for op in ops if op.get("errors")]
    for op in failed:
        print(f"failed op: {op['errors']}", file=sys.stderr)
    if args.trace:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values, residual = per_layer(ops, list(units))
        print(f"layer decomposition: sum(self_s) - traced_op_s = {residual:.3e} s")
        metrics = {name: (values.get(name, 0.0), unit) for name, unit in units.items()}
    else:
        metrics = end_to_end(spec, ops)
    if not all(math.isfinite(value) for value, _ in metrics.values()):
        print("error: no op produced timings", file=sys.stderr)
        return 1
    samples = {"ops": len(ops), "traced_ops": sum(op["traced"] for op in ops)}
    untraced = [op for op in ops if not op["traced"] and "op_wall_s" in op]
    wall = {"op_s.p50": _median([op["op_wall_s"] for op in untraced]),
            "setup_s": _median([op["setup_wall_s"] for op in untraced])}
    missing = sorted({name for op in ops for name in op.get("missing", [])})
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(), "blas_threads": BLAS_THREADS,
        "versions": next((op["versions"] for op in ops if "versions" in op), {}),
        "samples": samples, "wall": wall, "missing_layers": missing,
    }
    print("provenance " + json.dumps(provenance))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"error_rate = {len(failed)}/{len(ops)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
