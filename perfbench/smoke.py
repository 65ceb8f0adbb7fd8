"""Fast self-check of the benchmark on the tiny variant of each workload.

    python3 perfbench/smoke.py

Asserts that every metric named in BENCHMARK.json prints with its unit,
that a deliberately wrong expected band count shows up in the failed
fraction, and that a traced pass's layer self times plus the unattributed
glue add up to the pass wall time.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def check_metrics_print(workload: str, trace: int) -> None:
    """The summary carries exactly the declared metrics, each with its unit,
    and a human-readable line prints each one."""
    cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload",
           workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=300)
    check(proc.returncode == 0, f"{workload} trace={trace} exited "
                                f"{proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    check(set(summary) == {"correct", "attempted", "failed", "metrics"},
          f"summary keys {sorted(summary)}")
    check(summary["correct"] and summary["failed"] == 0,
          f"{workload} trace={trace}: {summary['failed']} failed passes")
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    check(sorted(summary["metrics"]) == sorted(m["name"] for m in declared),
          f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = summary["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']}")
        check(any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                  for line in lines[:-1]), f"{m['name']} not printed with its unit")


def check_wrong_count_fails() -> None:
    """A wrong expected band count fails every pass and is not dropped."""
    args = run.parse_args(["--workload", "ref_band", "--seconds", "0.5", "--tiny"])
    wrong = {"eigenvalues": [[0.0] * 999]}
    summary = run.run_workload(args, reference_override=wrong)
    check(summary["attempted"] >= 1, "no pass attempted")
    check(summary["failed"] == summary["attempted"] and not summary["correct"],
          f"wrong count gave {summary['failed']}/{summary['attempted']} failed")


def check_self_times_add_up(workload: str) -> None:
    from layertrace import LAYERS, pass_layer_metrics
    from workloads import WORKLOADS

    w = WORKLOADS[workload](0, run.OUT_DIR / "smoke-work" / workload, tiny=True)
    w.prepare()
    _, tracer = run.run_passes(w, 0.0, True, None)
    spans = tracer.passes[0][1]
    metrics = pass_layer_metrics(spans)
    wall = spans[0][4] - spans[0][3]
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + \
        metrics["trace.unattributed_s"]
    check(abs(total - wall) <= 1e-9 * max(wall, 1.0),
          f"{workload}: self times {total!r} != pass wall {wall!r}")
    check(metrics["trace.unattributed_s"] < 0.5 * wall,
          f"{workload}: most of the pass is outside every layer")


def main() -> int:
    run.configure_process()
    try:
        for w in run.WORKLOAD_NAMES:
            for trace in (0, 1):
                check_metrics_print(w, trace)
            check_self_times_add_up(w)
        check_wrong_count_fails()
    finally:
        shutil.rmtree(run.OUT_DIR / "smoke-work", ignore_errors=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
