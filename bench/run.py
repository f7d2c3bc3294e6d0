"""Benchmark of lyubich-lab: deep preimage trees, the dense operator model
and cached pointwise transfer.

Run from the root of a checkout:

    python3 bench/run.py --workload tree_deep --seed 1 --seconds 20 --trace 0

One client drives the chosen workload in a closed loop for ``--seconds``
seconds of timed work, checks every output outside the timed region, and
prints a human-readable report followed, as the last line of standard
output, by one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports per-layer metrics from wrappers installed around the
package's functions (see tracing.py).  NOTES.md explains the workloads and
metrics.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5

# One process, one BLAS thread: the run stays within the machine's cores
# and the dense eigensolves do not compete with other processes' threads.
# Set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def import_package():
    """Import lyubich_lab from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "lyubich_lab", "__init__.py")):
        raise SystemExit(f"error: no lyubich_lab package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import lyubich_lab
    if os.path.dirname(os.path.dirname(os.path.abspath(lyubich_lab.__file__))) != SRC:
        raise SystemExit(f"error: lyubich_lab imported from {lyubich_lab.__file__}")
    return lyubich_lab


def import_seconds() -> float:
    """Median time of ``import lyubich_lab`` in a fresh interpreter, at the
    reference speed measured by that interpreter just before."""
    code = (f"import statistics, sys, time; sys.path[:0] = [{HERE!r}, {SRC!r}]; "
            "import speed; speeds = []\n"
            f"for _ in range({speed.MIN_SAMPLES}):\n"
            "    start = time.perf_counter(); speed.kernel(); "
            "speeds.append(time.perf_counter() - start)\n"
            "start = time.perf_counter(); import lyubich_lab\n"
            "print((time.perf_counter() - start) * speed.REFERENCE_S / statistics.median(speeds))")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                              capture_output=True, text=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def environment(lab) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as handle:
            ref = handle.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_file):
                with open(ref_file) as handle:
                    commit = handle.read().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "package": lab.__version__,
    }


@dataclass
class Loop:
    """What a closed loop measured; times are at the reference speed."""

    walls: list = field(default_factory=list)
    raw_walls: list = field(default_factory=list)
    items: int = 0
    item_s: float = 0.0
    ops: int = 0
    failed_ops: int = 0
    last: object = None


def closed_loop(workload, seconds: float, checks, probe) -> Loop:
    """Run iterations back to back until ``seconds`` of wall time.

    An iteration that raises counts as a failed operation and a failed
    check; the loop goes on.
    """
    loop = Loop()
    while not loop.walls or sum(loop.raw_walls) < seconds:
        workload.before_iteration()
        try:
            with probe.span() as span:
                it = workload.iterate()
        except Exception as exc:            # the run reports, never aborts
            loop.failed_ops += 1
            checks.check(f"iteration {len(loop.walls) + 1} raised", False,
                         "".join(traceback.format_exception_only(type(exc), exc)).strip())
            traceback.print_exc(file=sys.stderr)
            it = None
        loop.walls.append(span.seconds)
        loop.raw_walls.append(span.raw_s)
        if it is None:
            continue
        loop.items += it.items
        loop.item_s += span.seconds if it.item_s is None else it.item_s
        loop.ops += it.ops
        workload.check(it.result, checks)
        loop.last = it.result
    return loop


def median_setup(workload, lab, probe) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        lab.transfer_operator.clear_fiber_cache()
        with probe.span() as span:
            workload.setup()
        times.append(span.seconds)
    return statistics.median(times)


def traced_metrics(lab, workload, seconds, checks, probe):
    """One untraced iteration, then one traced set-up and half the time
    traced.  Per-layer values are one set-up plus the mean iteration."""
    import tracing

    plain = closed_loop(workload, 0, checks, probe)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        lab.transfer_operator.clear_fiber_cache()
        workload.setup()
        setup_values = tracing.layer_values(tracer)
        tracer.reset()
        loop = closed_loop(workload, seconds / 2, checks, probe)
        loop_values = tracing.layer_values(tracer)
        cache_calls = tracer.calls("transfer_operator.cached_fiber")
        cache_misses = tracer.calls("transfer_operator.fiber_miss")
    finally:
        tracer.restore()
    n = len(loop.walls)
    values = {k: setup_values[k] + loop_values[k] / n for k in loop_values}
    values["transfer_operator.hit_ratio"] = (
        1.0 - cache_misses / cache_calls if cache_calls else 0.0)
    values["trace.wall_s"] = statistics.median(loop.walls)
    values["trace.overhead_s"] = statistics.median(loop.walls) - statistics.median(plain.walls)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.LAYER_METRICS}
    return loop, metrics


def run(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: every code path in a few seconds")
    args = parser.parse_args(argv)

    lab = import_package()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(wl.WORKLOADS)}")
    # Traced runs time raw wall clock: probe samples would land inside spans.
    probe = speed.SpeedProbe(active=not args.trace)
    probe.start()
    try:
        sizes = wl.TINY if args.tiny else wl.FULL
        workload = wl.WORKLOADS[args.workload](lab, sizes, args.seed, probe)
        checks = wl.Checks(workload.name)
        env = environment(lab)
        if args.trace:
            lab.transfer_operator.clear_fiber_cache()
            workload.setup()
            loop, metrics = traced_metrics(lab, workload, args.seconds, checks, probe)
        else:
            setup_s = import_seconds() + median_setup(workload, lab, probe)
            loop = closed_loop(workload, args.seconds, checks, probe)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        probe.stop()

    if loop.last is not None:
        workload.final_check(loop.last, checks)
    if not args.trace:
        passed = checks.attempted - len(checks.failed)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(loop.walls), "unit": "s"},
            "items_per_s": {"value": loop.items / loop.item_s if loop.item_s else 0.0,
                            "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "check_pass_frac": {"value": passed / checks.attempted, "unit": "frac"},
            "accuracy_digits": {"value": checks.accuracy_digits(), "unit": "digits"},
        }

    report(workload, env, args, loop, checks)
    return {
        "correct": not checks.unexpected,
        "attempted": loop.ops + loop.failed_ops,
        "failed": loop.failed_ops,
        "metrics": metrics,
    }


def report(workload, env, args, loop, checks) -> None:
    """Human-readable lines ahead of the result line."""
    print(f"# workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# closed loop, 1 client: {len(loop.walls)} iterations, "
          f"{sum(loop.raw_walls):.3f} s wall, {loop.items} {workload.item}s; "
          f"median iteration {statistics.median(loop.raw_walls):.3f} s raw, "
          f"{statistics.median(loop.walls):.3f} s at reference speed")
    print("# no layer queues or waits in a single-process closed loop, "
          "so no wait times are reported")
    print(f"# checks: {checks.attempted} attempted, {len(checks.failed)} failed "
          f"({len(checks.unexpected)} unexpected)")
    seen = set()
    for rec in checks.failed:
        if rec["check"] in seen:
            continue
        seen.add(rec["check"])
        tag = "KNOWN FAILURE" if rec["known_failure"] else "FAILED"
        print(f"#   {tag} {rec['check']}: {rec['detail']}")
        if rec["known_failure"]:
            print(f"#     reason: {rec['known_failure']}")
    if checks.margins:
        worst = max(checks.margins, key=lambda m: m[1] / m[2])
        print(f"# accuracy: tightest check {worst[0]} error {worst[1]:.3e} "
              f"vs tol {worst[2]:.0e}")


def main(argv=None) -> int:
    result = run(argv)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
