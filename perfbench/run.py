"""anisodg benchmark: certified band solves and the studies built on them.

Run from the repository root::

    python3 perfbench/run.py --workload ref_band --seed 1 --seconds 10 --trace 0

Workloads: ``ref_band``, ``variable_sparse``, ``flux_sweep``,
``convergence_study``; BENCHMARK.json says why each was chosen.  One
process runs one workload as a closed loop of back-to-back passes for about
``--seconds`` (at least one pass per core, the cores taken in turn), after
an untimed warm-up pass of the workload's tiny variant (same code paths, a
fraction of a second), and starts each pass after a full garbage
collection.  Every pass is checked (inertia
count, residuals, CLI exit code, CSV rows, eigenvalues against
``reference.json`` and against the run's first pass); a failed pass is
counted, never dropped.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes and reports per-layer metrics from spans
recorded around calls into anisodg (``layertrace.py``), plus the tracing
overhead.  Details of every pass (band eigenvalues, failures, timings) and
the environment go to ``.perfbench_out/``; the last stdout line is the
JSON summary.  ``--record-reference`` rewrites ``reference.json`` from the
current code.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import gzip
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("ref_band", "variable_sparse", "flux_sweep",
                  "convergence_study")

#: Fresh interpreters timed per run for setup_s, spread evenly over the
#: cores like the passes; the median is reported.
SETUP_PROBES = 4

#: BLAS threads (at most nproc).  One thread: on a small shared box a second
#: BLAS thread waits on whichever core a neighbour holds, which adds noise.
MAX_BLAS_THREADS = 1


def configure_process() -> None:
    """Pin BLAS threads and the sweep's worker count before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    threads = str(min(MAX_BLAS_THREADS, nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ.pop("ANISODG_NUM_THREADS", None)
    src = ROOT / "src"
    if not (src / "anisodg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no anisodg sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import anisodg
    if Path(anisodg.__file__).resolve().parent != src / "anisodg":
        raise SystemExit(f"perfbench: imported anisodg from {anisodg.__file__}")
    # the CLI configures INFO logging to stderr unless a handler exists
    logging.getLogger().addHandler(logging.NullHandler())


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_numpy": blas(numpy),
            "blas_scipy": blas(scipy),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure_setup(args, work: Path) -> list[float]:
    """Wall time from interpreter start to ready (imports + input files)."""
    samples = []
    cores = sorted(os.sched_getaffinity(0))
    for k in range(1 if args.tiny else SETUP_PROBES):
        core = {cores[k % len(cores)]}
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-probe",
               str(work / f"probe{k}")] + (["--tiny"] if args.tiny else [])
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              preexec_fn=lambda: os.sched_setaffinity(0, core)) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        samples.append(elapsed)
    return samples


def run_passes(workload, seconds: float, trace: bool, reference: dict | None):
    """Closed loop of passes; returns the pass records and the tracer.

    Passes take the allowed cores in turn, one at a time: on a shared host
    each core's speed drifts on its own over minutes, and a run that samples
    every core drifts less than one that stays on one.  Once every core has
    had its turn, a pass starts only if a pass of the median length so far
    would end within ``seconds``, so a run lasts about ``seconds`` unless a
    single turn per core takes longer.
    """
    cores = sorted(os.sched_getaffinity(0))
    try:
        return _pass_loop(workload, seconds, trace, reference, cores)
    finally:
        os.sched_setaffinity(0, cores)


def _pass_loop(workload, seconds, trace, reference, cores):
    from layertrace import Tracer
    from workloads import PassRecord, check_pass

    tracer = Tracer()
    records: list[PassRecord] = []
    start = time.perf_counter()
    while True:
        index = len(records)
        traced = trace and index % 2 == 0
        # a traced pass and the untraced pass after it share a turn
        turn = index // 2 if trace else index
        os.sched_setaffinity(0, {cores[turn % len(cores)]})
        tracer.results = []
        tracer.install(spans=traced)
        out, error = None, None
        gc.collect()  # every pass starts from the same collector state
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.traced_pass(index) as spans:
                    out = workload.run_pass()
            else:
                out = workload.run_pass()
        except Exception:  # a pass that raises is a failed pass
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        if traced:
            wall = spans[0][4] - spans[0][3]
        first = next((r for r in records if r.ok), None)
        try:
            failures, eigs = check_pass(workload, out, tracer.results, first,
                                        reference)
        except OSError as exc:
            failures, eigs = [f"output unreadable: {exc}"], []
        if error:
            failures.insert(0, f"raised {error}")
        records.append(PassRecord(index, traced, wall, failures, eigs))
        tracer.results = []
        next_end = time.perf_counter() - start + statistics.median(
            r.wall_s for r in records)
        if not traced and turn + 1 >= len(cores) and next_end > seconds:
            return records, tracer


def summarize(args, records, tracer, setup_samples) -> dict:
    from layertrace import LAYER_METRICS, pass_layer_metrics

    untraced = [r.wall_s for r in records if not r.traced]
    metrics: dict[str, dict] = {}
    if args.trace:
        per_pass = [pass_layer_metrics(spans) for _, spans in tracer.passes]
        for name, (unit, _) in LAYER_METRICS.items():
            value = statistics.median(m[name] for m in per_pass)
            metrics[name] = {"value": value, "unit": unit}
        traced = statistics.median(r.wall_s for r in records if r.traced)
        metrics["trace.pass_s"] = {"value": traced, "unit": "s"}
        metrics["trace.untraced_pass_s"] = {"value": statistics.median(untraced), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced - statistics.median(untraced),
                                       "unit": "s"}
    else:
        metrics["pass_s"] = {"value": statistics.median(untraced), "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    return metrics


def write_details(args, env, records, tracer, metrics, setup_samples) -> Path:
    stem = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    failed = sum(not r.ok for r in records)
    walls = [r.wall_s for r in records if not r.traced]
    detail = {
        "workload": args.workload, "tiny": args.tiny,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "attempted": len(records), "failed": failed,
        "failed_fraction": failed / len(records),
        "pass_s_quartiles": quartiles(walls), "setup_samples_s": setup_samples,
        "metrics": metrics,
        "passes": [dataclasses.asdict(r) for r in records],
    }
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    if tracer.passes:
        with gzip.open(OUT_DIR / f"{stem}-spans.jsonl.gz", "wt") as f:
            for pass_id, spans in tracer.passes:
                for span_id, (name, layer, parent, t0, t1, attrs) in enumerate(spans):
                    f.write(json.dumps([pass_id, span_id, parent, name, layer,
                                        t0, t1, attrs]) + "\n")
    return path


def run_workload(args, reference_override: dict | None = None) -> dict:
    """Set up, measure and check one workload; returns the JSON summary."""
    from workloads import DEFAULT_SEED, WORKLOADS, load_reference

    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        setup_samples = [] if args.trace else measure_setup(args, work)
        cls = WORKLOADS[args.workload]
        workload = cls(args.seed, work / "run", tiny=args.tiny)
        workload.prepare()
        warmup = cls(args.seed, work / "warmup", tiny=True)
        try:  # untimed: lazy imports, allocator and BLAS pools
            warmup.prepare()
            warmup.run_pass()
        except Exception:  # only the timed passes are checked
            pass
        reference = reference_override
        if reference is None and not args.tiny and (
                cls.seed_independent or args.seed == DEFAULT_SEED):
            reference = load_reference()[args.workload]
        records, tracer = run_passes(workload, args.seconds, bool(args.trace),
                                     reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    metrics = summarize(args, records, tracer, setup_samples)
    path = write_details(args, env, records, tracer, metrics, setup_samples)
    failed = sum(not r.ok for r in records)
    walls = [r.wall_s for r in records if not r.traced]
    q1, q2, q3 = quartiles(walls)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}: {len(records)} passes, {failed} failed; "
          f"details in {path.relative_to(ROOT)}")
    for r in [r for r in records if r.failures][:5]:
        print(f"  pass {r.index} FAILED: {'; '.join(r.failures)}")
    print(f"pass_wall_s median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} n {len(walls)} s")
    print(f"failed_fraction {failed / len(records):.6g} 1")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def record_reference() -> int:
    """Rewrite reference.json: one pass of each workload at the default seed."""
    from workloads import DEFAULT_SEED, REFERENCE_FILE, WORKLOADS

    reference = {}
    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(DEFAULT_SEED, work / name)
            workload.prepare()
            records, _ = run_passes(workload, 0.0, False, None)
            failures = [f for r in records for f in r.failures]
            if failures:
                print(f"{name}: {'; '.join(failures)}", file=sys.stderr)
                return 1
            record = records[0]
            reference[name] = {"seed": DEFAULT_SEED, "eigenvalues": record.eigenvalues}
            print(f"{name}: band counts {[len(e) for e in record.eigenvalues]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="default: every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="2x8-sized variant of the workload (self-check)")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in turn, each in its own process (own peak RSS)."""
    rc = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        rc = max(rc, subprocess.run(cmd, cwd=ROOT).returncode)
    return rc


def main(argv=None) -> int:
    args = parse_args(argv)
    configure_process()
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        return run_all(args)
    if args.setup_probe:
        from workloads import WORKLOADS
        WORKLOADS[args.workload](args.seed, Path(args.setup_probe), args.tiny).prepare()
        print("ready", flush=True)
        return 0
    summary = run_workload(args)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
