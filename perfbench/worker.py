"""One op in a fresh process: import privsample.cli, run the op's commands, check them.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

The import of ``privsample.cli`` is timed first (setup_s), before anything
else is imported, so work moved to import time shows.  The op's time runs
from the start of its first command to the end of its last; the checks run
after it, outside the timed section.  Both are taken as this process's CPU
time (``setup_s``, ``op_s``) and as wall time (``setup_wall_s``,
``op_wall_s``): the program is single-threaded, so its CPU time is its wall
time less the time it waited to run, which on a shared host includes time
the hypervisor gave to other guests.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time


def run_command(cli, command) -> str | None:
    """Run one CLI command in-process; return an error message or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # noqa: BLE001 - the op fails; the run goes on
        return f"{' '.join(command.argv[:2])}: raised\n{traceback.format_exc()}"
    if command.stdout:
        Path(command.stdout).write_text(out.getvalue(), encoding="utf-8")
    if code != 0:
        return f"{' '.join(command.argv[:2])}: exit {code}: {err.getvalue().strip()}"
    return None


def run_commands(cli, cmds) -> str | None:
    """Run the op's commands in order; the first error message, or None."""
    for command in cmds:
        error = run_command(cli, command)
        if error:
            return error
    return None


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result_path = Path(sys.argv[2])

    t0, c0 = perf_counter(), process_time()
    import privsample.cli as cli
    setup_s, setup_wall_s = process_time() - c0, perf_counter() - t0

    src = Path(spec["root"]).resolve() / "src"
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: privsample imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if spec.get("import_only"):
        result_path.write_text(json.dumps(result))
        return 0

    from checks import check
    from tracing import Tracer
    from workloads import commands

    op_dir = Path(spec["op_dir"])
    op_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    cmds = commands(spec, op_dir)
    start, start_cpu = perf_counter(), process_time()
    error = run_commands(cli, cmds)
    op_s, op_wall_s = process_time() - start_cpu, perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors, counts = [error] if error else [], {}
    if not errors:
        try:
            errors, counts = check(spec, op_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors = [f"check: {exc!r}"]
    counts["formats.bytes_read"] = sum(os.path.getsize(p) for c in cmds for p in c.reads if os.path.exists(p))
    counts["formats.bytes_written"] = sum(os.path.getsize(p) for c in cmds for p in c.writes if os.path.exists(p))

    result.update(op_s=op_s, op_wall_s=op_wall_s, peak_rss_mb=peak_rss_mb, errors=errors, counts=counts)
    if tracer is not None:
        layers = tracer.layers()
        counts.update(tracer.counts)
        result.update(layers=layers, missing=tracer.missing)
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
