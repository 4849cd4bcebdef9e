"""Run one lcplearn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload learn --seed 1 --seconds 30 --trace 0

`--workload all` runs learn, compile and noise one after another.
Run from the root of a checkout; the package is imported from its
`src/`.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-layer metrics of a separate traced run.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when
every correctness check passed.
"""

import os

# one client, one process: BLAS stays single-threaded in this process and
# in the set-up probes it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("learn", "compile", "noise")
SETUP_PROBES = 5

# left out of the workloads on purpose; see README.md
EXCLUDED = (
    "verify --suite all and Tier-1: they only orchestrate the layers measured here",
    "classical: microseconds at these n; counted through oracle.classical_queries",
    "cli: only its import cost matters, and setup_s covers it",
    "synthesis alone at width 11-12",
    "n > 16: the dense path cannot reach it",
)
PROBE_TIMEOUT_S = 120

END_TO_END = ("setup_s", "peak_rss_mb", "a_p50_rel", "a_tail_rel", "b_p50_rel", "b_tail_rel")
# request latency divided by the time of the reference loop run around it
REL_UNIT = "ref_loops"

# the first and second request kind of each workload, under the names the
# report gives their latency metrics
LABELS = {
    "learn": ("learn", "certify"),
    "compile": ("compile_map", "compile_chain"),
    "noise": ("asp_quito", "asp_zero"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one lcplearn benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup_probe(args) -> None:
    """Import and warm up as a timed run does, then print the wall clock."""
    from workloads import WORKLOADS, plain_api

    WORKLOADS[args.workload](args.seed).warm_up(plain_api())
    print(repr(time.time()), flush=True)


def measure_setup(args) -> list[float]:
    """Seconds from starting a fresh interpreter to being ready for the first
    timed request, once per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and that
    percentile; the maximum when there are fewer than 11 samples."""
    xs = sorted(values)
    n = len(xs)
    if n >= 11:
        return xs[n - 11], 100.0 * (n - 10) / n
    return xs[-1], 100.0


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind == "Unified":
            sizes[f"l{level}"] = _read(index / "size")
    return sizes


def _cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*cmd):
        return subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *cmd],
                              capture_output=True, text=True, timeout=30)

    try:
        sha, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    if sha.returncode != 0:
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def provenance(args) -> dict:
    import numpy as np
    from tracing import kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **_cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels_backend": kernels.BACKEND,
        "numba": kernels.HAVE_NUMBA,
        "git": _git(),
        "excluded": EXCLUDED,
    }


def exact_count_check(first: dict, second: dict) -> bool:
    """The exact counts of the first cycle agree when computed twice."""
    if first == second:
        return True
    print(f"perfbench: exact counts differ between two computations: {first} != {second}", file=sys.stderr)
    return False


def end_to_end(args, workload, result, setup_times) -> tuple[dict, list[str]]:
    """The contract metrics, and report lines that also name them per workload."""
    a, b = workload.kinds
    label_a, label_b = LABELS[args.workload]
    metrics, lines = {}, []

    def show(name, value, unit, detail=""):
        lines.append(f"{name:<27} {value:14.4f} {unit:<9} {detail}")

    def put(name, value, unit, detail=""):
        metrics[name] = {"value": value, "unit": unit}
        show(name, value, unit, detail)

    put("setup_s", statistics.median(setup_times), "s", f"median of {len(setup_times)} fresh interpreters")
    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    for key, kind, label in (("a", a, label_a), ("b", b, label_b)):
        n = len(result.samples[kind])
        rel = result.relative[kind] or [0.0]
        value, pct = tail(rel)
        put(f"{key}_p50_rel", statistics.median(rel), REL_UNIT, f"= {label}_p50, {n} samples")
        put(f"{key}_tail_rel", value, REL_UNIT, f"= {label}_tail, p{pct:.1f} of {n} samples")
        ms = [1e3 * s for s in result.samples[kind]] or [0.0]
        value, pct = tail(ms)
        show(f"{label}_p50_ms", statistics.median(ms), "ms", f"wall clock, {n} samples")
        show(f"{label}_tail_ms", value, "ms", f"wall clock, p{pct:.1f} of {n} samples")
    ref_ms = [1e3 * s for s in result.reference_s]
    show("reference_loop_ms", statistics.median(ref_ms), "ms",
         f"median of {len(ref_ms)}; min {min(ref_ms):.4f}, max {max(ref_ms):.4f}")
    if args.workload == "noise":
        from workloads import SHOTS

        for kind, label in ((a, label_a), (b, label_b)):
            seconds = sum(result.samples[kind])
            shots = len(result.samples[kind]) * SHOTS
            show(f"{label}_shots_per_s", shots / seconds if seconds else 0.0, "shots/s", "wall clock")
    if args.workload == "compile":
        for name in ("transpile.compiled_cx", "transpile.compiled_depth"):
            lines.append(f"{name.split('.')[1]:<27} {result.first_cycle_counts.get(name, 0):14d} count "
                         "(first cycle, exact)")
    assert tuple(metrics) == END_TO_END
    return metrics, lines


def main_untraced(args) -> tuple[dict, int, int, list[str]]:
    from workloads import WORKLOADS, plain_api, run_pass

    setup_times = measure_setup(args)
    workload = WORKLOADS[args.workload](args.seed)
    api = plain_api()
    workload.warm_up(api)
    workload.prepare_references()
    result = run_pass(workload, api, args.seconds, workload.min_cycles)
    attempted, failed = result.attempted, result.failed
    if result.first_cycle_counts:
        again = run_pass(workload, api, cycles=1)
        attempted += again.attempted + 1
        failed += again.failed + (not exact_count_check(result.first_cycle_counts, again.first_cycle_counts))
    metrics, lines = end_to_end(args, workload, result, setup_times)
    lines.append(f"{'fail_frac':<27} {failed / attempted:14.4f} ({failed} of {attempted})")
    return metrics, attempted, failed, lines


def main_traced(args) -> tuple[dict, int, int, list[str]]:
    from tracing import EXACT_COUNTS, Tracer, calibrate, check_restored, patched_attributes, per_layer_metrics
    from workloads import WORKLOADS, plain_api, run_pass

    workload = WORKLOADS[args.workload](args.seed)
    api = plain_api()
    workload.warm_up(api)
    workload.prepare_references()
    calib, calib_numba = calibrate()

    def traced_pass(**kw):
        tracer = Tracer()
        before = patched_attributes()
        tracer.install()
        try:
            result = run_pass(workload, tracer.api(), on_first_cycle=lambda: {
                k: v for k, v in tracer.counters.items() if k in EXACT_COUNTS}, **kw)
        finally:
            tracer.uninstall()
        check_restored(before)
        return tracer, result

    tracer, traced = traced_pass(seconds=args.seconds / 2)
    untraced = run_pass(workload, api, cycles=traced.cycles)
    overhead = sum(map(sum, traced.relative.values())) / sum(map(sum, untraced.relative.values()))
    attempted = traced.attempted + untraced.attempted
    failed = traced.failed + untraced.failed
    if traced.first_cycle_counts:
        _, again = traced_pass(cycles=1)
        attempted += again.attempted + 1
        failed += again.failed + (not exact_count_check(traced.first_cycle_counts, again.first_cycle_counts))
    metrics = per_layer_metrics(tracer, traced.cycles, traced.first_cycle_counts, overhead, calib)
    lines = [f"{name:<40} {m['value']:16.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [f"{name + ' (numba)':<40} {value:16.6g} ms" for name, value in calib_numba.items()]
    lines.append(f"{'fail_frac':<40} {failed / attempted:16.6g} ({failed} of {attempted})")
    return metrics, attempted, failed, lines


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another; the last line
    merges their results, with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if not lines:
            raise RuntimeError(f"workload {name} printed no result")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args)
        return 0
    run = main_traced if args.trace else main_untraced
    metrics, attempted, failed, lines = run(args)
    print(f"# lcplearn benchmark {json.dumps(provenance(args), sort_keys=True)}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
