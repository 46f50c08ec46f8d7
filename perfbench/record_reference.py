"""Write reference.json: the exact outputs of one ``tables`` and one ``analysis`` op.

Usage: python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known to be right; the benchmark
then fails any op whose exact outputs differ from these.  Both sizes are
recorded: ``full`` for the benchmark, ``tiny`` for its self-test.  The
commands run in this process, with BLAS pinned as in the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import ROOT, worker_env

os.environ.update(worker_env(ROOT))  # before numpy is imported
sys.path.insert(0, str(ROOT / "src"))

import privsample.cli as cli  # noqa: E402

from checks import REFERENCE, exact_outputs  # noqa: E402
from worker import run_commands  # noqa: E402
from workloads import SIZES, commands, make_inputs  # noqa: E402


def main() -> int:
    reference = {}
    for size in SIZES:
        for workload in ("tables", "analysis"):
            work = ROOT / ".perfbench_work" / f"record-{size}-{workload}"
            work.mkdir(parents=True)
            try:
                spec = make_inputs(workload, 0, SIZES[size], work)
                error = run_commands(cli, commands(spec, work))
                exact = None if error else exact_outputs(workload, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if error is None and any(v.get("verdict", "pass") != "pass" for v in exact.values()):
                error = "verify-dp did not pass"
            if error:
                print(f"{size} {workload}: {error}", file=sys.stderr)
                return 1
            reference.setdefault(size, {})[workload] = exact
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
