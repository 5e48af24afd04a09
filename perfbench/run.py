"""scm-ident benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Runs the workload's operation back to back for ``--seconds``, checks
every output outside the timed region, and prints one JSON object as the
last line of stdout: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones,
measured with tracing off. With ``--trace 1`` every operation runs twice,
untraced and then traced with spans around each public call, and the
metrics are the per-layer ones plus the tracing overhead. The full run
record (environment, latencies, failures, spans) goes to
``.perfbench-out/`` at the repository root; ``perfbench/compare.py``
compares two records.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

from reference import REFERENCE_MS, Reference
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
}
PER_LAYER = {
    "ident.closure_ms": "ms",
    "ident.agreement_ms": "ms",
    "ident.family_members": "count",
    "ident.subtractions": "count",
    "ident.closure_yield": "ratio",
    "topology.load_ms": "ms",
    "selection.mask_ms": "ms",
    "losses.penalty_ms": "ms",
    "kernels.audit_ms": "ms",
    "kernels.audit_ms.3x5": "ms",
    "kernels.matrices_per_s": "1/s",
    "parallel.workers": "count",
    "parallel.wall_ms": "ms",
    "parallel.speedup": "ratio",
    "dgp.generate_ms": "ms",
    "dgp.export_ms": "ms",
    "dgp.load_ms": "ms",
    "dgp.csv_bytes": "bytes",
    "dgp.export_mb_per_s": "MB/s",
    "dgp.load_mb_per_s": "MB/s",
    "recovery.fit_ms": "ms",
    "recovery.fit_iters": "count",
    "recovery.fit_us_per_iter": "us",
    "recovery.restarts_at_max_iters": "count",
    "recovery.invert_ms": "ms",
    "recovery.match_ms": "ms",
    "recovery.mcc": "ratio",
    "cli.self_ms": "ms",
    "trace.overhead_p50_ms": "ms",
    "trace.overhead_tail_ms": "ms",
    "trace.overhead_ops_per_s": "1/s",
}
# The names the end-to-end metrics go by on each workload:
# name -> (generic metric, scale, unit).
WORKLOAD_NAMES = {
    "decide": {
        "check_p50_ms": ("op_p50_ms", 1.0, "ms"),
        "check_p90_ms": ("op_tail_ms", 1.0, "ms"),
        "checks_per_s": ("ops_per_s", 1.0, "1/s"),
    },
    "audit": {"audit_matrices_per_s": ("ops_per_s", 38874.0, "1/s")},
    "pipeline": {"pipeline_s": ("op_p50_ms", 1e-3, "s")},
    "contrast": {"contrast_s": ("op_p50_ms", 1e-3, "s")},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="build the inputs, print the monotonic clock and exit (used to time set-up)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scm_ident" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no scm_ident sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            print(time.monotonic())
            return 0
        setup, setup_wall = ([], []) if args.trace else time_setup(args)
        reference = Reference(workload.concurrency)
        try:
            run = measure(workload, reference, args.seconds, bool(args.trace))
        finally:
            reference.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(run, workload.tail_percentile)
        units = PER_LAYER
    else:
        metrics = end_to_end(run["latencies"][False], workload.tail_percentile, setup)
        units = END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "failures": run["failures"],
        "tail_percentile": workload.tail_percentile,
        "setup_s_samples": setup,
        "setup_wall_s_samples": setup_wall,
        "latencies_ms": {"untraced": run["latencies"][False], "traced": run["latencies"][True]},
        "wall_ms": {"untraced": run["wall"][False], "traced": run["wall"][True]},
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "spans": run["tracer"].spans,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))

    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    if not args.trace:
        for name, (source, scale, unit) in WORKLOAD_NAMES[args.workload].items():
            print(f"{name} {metrics[source] * scale:.6g} {unit}")
        print(f"fail_rate {record['failed'] / run['attempted']:.6g} share")
    for failure in run["failures"][:10]:
        print(f"FAILED op {failure['op']}: {'; '.join(failure['problems'])}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not run["failures"],
                "attempted": run["attempted"],
                "failed": len(run["failures"]),
                "metrics": record["metrics"],
            }
        )
    )
    return 0


def time_setup(args) -> tuple[list[float], list[float]]:
    """Interpreter start to inputs built, in fresh interpreters: each
    time scaled to reference speed like the latencies, and raw."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    reference = Reference(1)
    scaled, wall = [], []
    before = reference.samples()
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        wall.append(float(done.stdout.split()[-1]) - start)
        after = reference.samples()
        scaled.append(wall[-1] * REFERENCE_MS / statistics.mean(before + after))
        before = after
    return scaled, wall


def measure(workload, reference, seconds: float, traced: bool) -> dict:
    """Run whole rounds of operations until ``seconds`` have passed.

    Latencies are wall times scaled to reference speed (see reference.py);
    the raw wall times are kept too. In a traced run each operation runs
    untraced and traced, the two in alternating order, so the two latency
    lists give the tracing overhead.
    """
    tracers = [Tracer(False), Tracer(True)] if traced else [Tracer(False)]
    latencies = {False: [], True: []}
    wall = {False: [], True: []}
    counts = Counter()
    failures = []
    attempted = 0
    i = 0
    before = reference.samples()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        round_start = time.perf_counter()
        pending = {False: [], True: []}
        for _ in range(workload.round_size):
            for tracer in tracers if i % 2 == 0 else tracers[::-1]:
                attempted += 1
                tracer.op = i
                try:
                    began = time.perf_counter()
                    with tracer.span("op"):
                        result = workload.op(i, tracer)
                    pending[tracer.enabled].append((time.perf_counter() - began) * 1000.0)
                    problems = workload.check(i, result)
                    if tracer.enabled:
                        extra, op_counts = workload.trace_extra(i, result, tracer)
                        problems += extra
                        counts.update(op_counts)
                except Exception as exc:  # a failed operation is counted, not fatal
                    traceback.print_exc()
                    problems = [f"{type(exc).__name__}: {exc}"]
                if problems:
                    failures.append({"op": i, "traced": tracer.enabled, "problems": problems})
            i += 1
        after = reference.samples(busy_ms=(time.perf_counter() - round_start) * 1000.0)
        scale = REFERENCE_MS / statistics.mean(before + after)
        for enabled, measured in pending.items():
            wall[enabled] += measured
            latencies[enabled] += [ms * scale for ms in measured]
        before = after
    return {
        "attempted": attempted,
        "failures": failures,
        "latencies": latencies,
        "wall": wall,
        "counts": counts,
        "tracer": tracers[-1],
    }


def _quantiles(latencies: list[float], tail: int) -> tuple[float, float, float]:
    """Median, the ``tail`` percentile and operations per second of busy time."""
    if not latencies:
        return 0.0, 0.0, 0.0
    tail_ms = (
        statistics.quantiles(latencies, n=100, method="inclusive")[tail - 1]
        if len(latencies) > 1
        else latencies[0]
    )
    return statistics.median(latencies), tail_ms, 1000.0 * len(latencies) / sum(latencies)


def end_to_end(latencies: list[float], tail: int, setup: list[float]) -> dict:
    p50, tail_ms, rate = _quantiles(latencies, tail)
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": kib * 1024 / 1e6,
        "op_p50_ms": p50,
        "op_tail_ms": tail_ms,
        "ops_per_s": rate,
    }


def per_layer(run: dict, tail: int) -> dict:
    """Per-operation means over the traced operations.

    Times are self times of the spans named after each layer's public
    calls; a layer the workload never calls reads 0.
    """
    tracer = run["tracer"]
    ops = max(len(run["latencies"][True]), 1)
    self_ms = tracer.self_ms()
    count = {name: value / ops for name, value in run["counts"].items()}

    def ms(*names):
        return sum(self_ms.get(name, 0.0) for name in names) / ops

    def under(prefix):
        return sum(v for name, v in self_ms.items() if name.startswith(prefix)) / ops

    def ratio(a, b):
        return a / b if b else 0.0

    pooled = ms("ident.equivalence_audit", "recovery.identifiability_experiment")
    serial = sum(tracer.duration_ms("replay")) / ops
    audit = under("kernels.audit_shape.")
    fit_ms = ms("recovery.fit")
    export, load = ms("dgp.export_dataset"), ms("dgp.load_dataset")
    megabytes = count.get("csv_bytes", 0.0) / 1e6
    cli = ms("cli.main")
    layers = under("dgp.") + under("topology.") + under("recovery.")
    members, subtractions = count.get("family_members", 0.0), count.get("subtractions", 0.0)
    p50, tail_ms, rate = _quantiles(run["latencies"][False], tail)
    traced_p50, traced_tail_ms, traced_rate = _quantiles(run["latencies"][True], tail)
    return {
        "ident.closure_ms": ms("ident.closure_identifiable"),
        "ident.agreement_ms": ms("ident.uic_check", "ident.uic_violations"),
        "ident.family_members": members,
        "ident.subtractions": subtractions,
        "ident.closure_yield": ratio(members, subtractions),
        "topology.load_ms": under("topology."),
        "selection.mask_ms": under("selection."),
        "losses.penalty_ms": under("losses."),
        "kernels.audit_ms": audit,
        "kernels.audit_ms.3x5": ms("kernels.audit_shape.3x5"),
        "kernels.matrices_per_s": ratio(count.get("matrices", 0.0), audit / 1000.0),
        "parallel.workers": count.get("workers", 0.0),
        "parallel.wall_ms": pooled,
        "parallel.speedup": ratio(serial, pooled),
        "dgp.generate_ms": ms("dgp.generate_dataset"),
        "dgp.export_ms": export,
        "dgp.load_ms": load,
        "dgp.csv_bytes": count.get("csv_bytes", 0.0),
        "dgp.export_mb_per_s": ratio(megabytes, export / 1000.0),
        "dgp.load_mb_per_s": ratio(megabytes, load / 1000.0),
        "recovery.fit_ms": fit_ms,
        "recovery.fit_iters": count.get("fit_iters", 0.0),
        "recovery.fit_us_per_iter": ratio(fit_ms * 1000.0, count.get("fit_iters", 0.0)),
        "recovery.restarts_at_max_iters": count.get("restarts_at_max_iters", 0.0),
        "recovery.invert_ms": ms("recovery.recover_latents"),
        "recovery.match_ms": ms("recovery.match_permutation"),
        "recovery.mcc": count.get("mcc", 0.0),
        "cli.self_ms": cli - layers if cli else 0.0,
        "trace.overhead_p50_ms": traced_p50 - p50,
        "trace.overhead_tail_ms": traced_tail_ms - tail_ms,
        "trace.overhead_ops_per_s": traced_rate - rate,
    }


def environment() -> dict:
    import numpy
    import scm_ident
    from scm_ident._parallel import worker_count

    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": scm_ident.KERNEL_BACKEND,
        "workers": worker_count(),
        "SCM_IDENT_THREADS": os.environ.get("SCM_IDENT_THREADS"),
        "SCM_IDENT_BACKEND": os.environ.get("SCM_IDENT_BACKEND"),
    }


def stop_multiprocessing_helpers() -> None:
    """Stop and reap the helper processes multiprocessing starts on its own.

    A spawn or forkserver pool (the reference's helpers, or the program's
    pool where forkserver is the default) starts a resource tracker, and
    forkserver a server process. Both outlive every pool and would only
    end after this process exits, unreaped, so they are stopped here.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_multiprocessing_helpers()
    sys.exit(status)
