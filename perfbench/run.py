"""Run the parh benchmark: one workload, or all of them, at one seed.

    python3 perfbench/run.py --workload hom-s3 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from anywhere; it builds nothing and imports `parh` from the `src`
directory beside `perfbench`.  Each workload runs in its own worker
process, one at a time.  Every metric is printed by name with its unit,
and the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a separate traced run with --trace 1.
When a worker cannot run (for example because `src/parh` is missing) the
script exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    pass


def call_worker(args: list[str], timeout: float) -> dict:
    """Run one worker to completion; its last output line is JSON.

    The worker runs in a process group of its own, so that on a timeout
    the set-up samples it starts are killed with it.
    """
    proc = subprocess.Popen([sys.executable, str(WORKER), *args],
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"worker timed out after {timeout:.0f} s") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 workdir: Path) -> dict:
    out = call_worker(["--workload", name, "--seed", str(seed), "--seconds",
                       str(seconds), "--trace", str(trace), "--workdir",
                       str(workdir)], TIMEOUT_S)
    attempted, failed = out["attempted"], out["failed"]
    if trace:
        values = dict(out["per_layer"], **{"host.calib_s": out["calib_s"]})
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in sorted(values.items())}
        samples = f"{values['trace.passes']} traced passes"
    else:
        # Per operation: its repeats in this run, as [time, reference].
        ops = list(zip(*out["passes"]))
        values = {
            "wall_ref": sum(statistics.median(t / ref for t, ref in runs)
                            for runs in ops),
            "setup_s": statistics.median(out["setups"]),
            "peak_rss_mib": out["peak_rss_mib"],
            "pass_ratio": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in values.items()}
        totals = ", ".join(f"{sum(t for t, _ in p):.3f}"
                           for p in out["passes"])
        fastest = sum(min(t for t, _ in runs) for runs in ops)
        refs = [ref for runs in ops for _, ref in runs]
        samples = (f"wall_ref sums the median over {len(ops[0])} runs of "
                   f"each of {len(ops)} operations of its time over the "
                   f"reference loop time around it (reference median "
                   f"{statistics.median(refs) * 1000:.2f} ms, range "
                   f"{min(refs) * 1000:.2f}-{max(refs) * 1000:.2f} ms); "
                   f"pass times {totals} s; fastest pass {fastest:.3f} s "
                   f"(each operation's fastest run, summed); setup_s "
                   f"median of {len(out['setups'])} set-ups")
    print(f"{name} seed {seed}: {samples}; fail_ratio {failed / attempted} "
          f"({failed} of {attempted} operations); host.calib_s "
          f"{out['calib_s']:.4f} s")
    for k, m in metrics.items():
        print(f"  {k} = {m['value']} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the parh benchmark.",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    workdir = HERE.parent / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, workdir)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": m for name, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
