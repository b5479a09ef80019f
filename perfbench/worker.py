"""One workload in one process: set up, run timed passes, print one JSON line.

`run.py` starts this script once per workload.  After each pass the
script starts itself once more with --setup-only, to sample set-up time.
It imports `parh` from the `src` directory next to the benchmark, never
from an installed copy, and calls `parh.cli.main` in-process for every
operation.  In untraced passes every operation runs between two runs of a
short reference loop, so that each operation time can be read against the
speed of the host at that moment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import COUNT_METRICS, TIME_METRICS, Tracer
from workloads import WORKLOADS, build_inputs, mismatches

ROOT = Path(__file__).resolve().parent.parent
# About 10 ms: short enough to see the host's speed at the moment of the
# operation next to it, and a few per cent of a pass.
REFERENCE_STEPS = 4_000


def setup(seed: int, workdir: Path, draw):
    """Import the package and build the seeded inputs; return them, timed."""
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import parh.cli

    if Path(parh.__file__).resolve().parent != ROOT / "src" / "parh":
        raise RuntimeError(f"imported parh from {parh.__file__}, not {ROOT}")
    inputs = build_inputs(seed, workdir, parse_table, draw)
    return inputs, perf_counter() - start


def parse_table(text: str, name: str):
    """The program's table parser, looked up at call time so that a traced
    set-up sees the tracer's version."""
    import parh.groups

    return parh.groups.parse_cayley_table(text, name=name)


def sample_setup(args) -> float:
    """Set-up time of a fresh worker process with the same arguments."""
    workdir = args.workdir / "setup-sample"
    workdir.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", "0", "--workdir", str(workdir),
         "--setup-only"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def fraction_loop(n: int) -> float:
    """Seconds for a fixed stdlib Fraction loop of n steps.

    The collector is off during the loop, so that its time does not
    depend on how many objects the program under test holds.
    """
    gc.disable()
    try:
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, n + 1):
            total += Fraction(1, i % 97 + 1)
        return perf_counter() - start
    finally:
        gc.enable()


def host_calibration() -> float:
    """A diagnostic of host speed only, printed as host.calib_s."""
    return fraction_loop(40_000)


def reference() -> float:
    """The reference loop run around each operation of an untraced pass."""
    return fraction_loop(REFERENCE_STEPS)


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


def run_op(op) -> list[str]:
    """Call the CLI in-process; return the problems with its result."""
    import parh.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = parh.cli.main(op.argv + ["--json"])
    except Exception:
        return [f"{op.name}: raised\n{traceback.format_exc()}"]
    if code != 0:
        return [f"{op.name}: exit code {code}: {err.getvalue().strip()}"]
    try:
        data = json.loads(out.getvalue())
    except json.JSONDecodeError:
        return [f"{op.name}: output is not JSON: {out.getvalue()[:200]!r}"]
    return mismatches(op, data)


def timed_op(workload, op, i: int, tally: Tally) -> float:
    """Run one operation, count it and report its problems; its time."""
    tally.attempted += 1
    t = perf_counter()
    problems = run_op(op)
    elapsed = perf_counter() - t
    if problems:
        tally.failed += 1
        for line in problems:
            print(f"FAIL {workload.name} pass {i}: {line}", file=sys.stderr)
    return elapsed


def run_pass(workload, inputs, i: int, tally: Tally) -> list[float]:
    """Run every operation of the workload once; return their times."""
    return [timed_op(workload, op, i, tally) for op in workload.ops(inputs)]


def referenced_pass(workload, inputs, i: int,
                    tally: Tally) -> list[list[float]]:
    """Run every operation once, each between two reference loops.

    Returns [operation time, mean of the two reference times] per
    operation.
    """
    out = []
    before = reference()
    for op in workload.ops(inputs):
        t = timed_op(workload, op, i, tally)
        after = reference()
        out.append([t, (before + after) / 2])
        before = after
    return out


def timed_passes(seconds: float, one_pass) -> list:
    """Run passes 0, 1, ... and return what each returns.

    A pass starts only if, at the median pass duration so far, it would
    end within `seconds`; the first pass always runs.
    """
    passes, durations = [], []
    start = perf_counter()
    while True:
        t = perf_counter()
        passes.append(one_pass(len(passes)))
        durations.append(perf_counter() - t)
        if perf_counter() - start + statistics.median(durations) > seconds:
            return passes


def traced_metrics(workload, inputs, seconds: float, tally: Tally,
                   trace_path: Path, redo_setup) -> dict:
    """Per-layer self times (mean per pass) and counters (of pass 0).

    The input build of set-up is repeated once with the tracer installed;
    its `groups` self time is reported on its own, apart from the passes.
    """
    untraced_s = sum(run_pass(workload, inputs, 0, tally))
    tracer = Tracer()
    tracer.install()
    with tracer.root("set-up"):
        redo_setup()
    setup_self_s = tracer.take()[0]
    passes = []

    def one_pass(i: int) -> list[float]:
        with tracer.root(f"pass {i}") as root:
            times = run_pass(workload, inputs, i, tally)
        passes.append((root["wall_s"], root["wall_s"] - root["attributed_s"],
                       *tracer.take()))
        return times

    try:
        timed_passes(max(seconds - untraced_s, 0.0), one_pass)
    finally:
        tracer.uninstall()
    trace_path.write_text(json.dumps(tracer.dump()))

    metrics = {m: statistics.fmean([p[2].get(m, 0.0) for p in passes])
               for m in TIME_METRICS}
    counts = passes[0][3]
    metrics.update({m: counts.get(m, 0) for m in COUNT_METRICS})
    cols = counts.get("linalg.rank_cols", 0)
    metrics["linalg.rank_yield"] = (counts.get("linalg.rank_total", 0) / cols
                                    if cols else 0.0)
    metrics["groups.setup_s"] = setup_self_s.get("groups.build_s", 0.0)
    metrics["trace.wall_s"] = statistics.fmean([p[0] for p in passes])
    metrics["trace.unattributed_s"] = statistics.fmean([p[1] for p in passes])
    metrics["trace.overhead_ratio"] = passes[0][0] / untraced_s
    metrics["trace.passes"] = len(passes)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    inputs, setup_s = setup(args.seed, args.workdir, workload.draw)
    result: dict = {"setup_s": setup_s}
    if not args.setup_only:
        result["calib_s"] = host_calibration()
        tally = Tally()
        if args.trace:
            trace_path = args.workdir.parent / (
                f"trace-{args.workload}-seed{args.seed}.json")
            redo = args.workdir / "traced-setup"
            redo.mkdir(exist_ok=True)
            result["per_layer"] = traced_metrics(
                workload, inputs, args.seconds, tally, trace_path,
                lambda: build_inputs(args.seed, redo, parse_table,
                                     workload.draw))
        else:
            # One fresh set-up after each pass, so that the set-up samples
            # spread over the run like the passes do.
            setups = result["setups"] = [setup_s]

            def one_pass(i: int) -> list[list[float]]:
                ops = referenced_pass(workload, inputs, i, tally)
                setups.append(sample_setup(args))
                return ops

            result["passes"] = timed_passes(args.seconds, one_pass)
        result["attempted"] = tally.attempted
        result["failed"] = tally.failed
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["peak_rss_mib"] = kib / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
