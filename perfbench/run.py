"""quatbox benchmark: seeded, single-process, closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cli-paper,vandam-verify,register-scale}
                             --seed N --seconds S --trace {0,1}

The package is imported from the checkout's own src/ directory.  One client
sends each request after the previous one has finished and been checked;
checks run outside the timed region.  With --trace 0 the run measures for S
seconds of whole cycles and reports the end-to-end metrics of
BENCHMARK.json, with set-up time measured in fresh interpreters.  Every
end-to-end time is scaled to a reference machine speed, which a kernel run
from a timer signal measures on the one CPU the run is pinned to (see
calibrate.py); the report keeps the uncalibrated figures beside them.  With
--trace 1 it runs a fixed, seeded request list (sized from S), each request
once plain and once with every public quatbox function wrapped, and reports
the per-layer metrics (see perfbench/layers.json).  Human-readable lines
come first; the last line of stdout is one JSON object.  A report and, for
traced runs, the spans are written under perfbench/out/.
"""

import os

# NumPy and BLAS get one thread each: the load is one client on a small
# machine.  Set before NumPy is imported here or in any child interpreter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# requests without --format must render as text
os.environ.pop("QUATBOX_FORMAT", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden" / "cli_paper.json"
WORKLOAD_NAMES = ("cli-paper", "vandam-verify", "register-scale")

#: fresh interpreters timed for setup_s in a run; setup_s is their median
SETUP_PROBES = 9
#: latency_tail_ms is the highest percentile with this many samples above it
TAIL_SAMPLES_ABOVE = 10
#: Hamilton products in the fixed batch behind quaternion.mul_ns
MUL_BATCH = 20000

#: run through quatbox.cli.main at the start of every traced run, so that
#: every wrapped function is entered on every workload; counted in the totals
CENSUS = (
    ["prbox"],
    ["prbox", "--strategy", "noisy:0.9"],
    ["chsh", "--strategy", "classical"],
    ["chsh", "--strategy", "complex"],
    ["vandam", "--function", "AND"],
    ["order-demo"],
)


def import_package():
    """Import quatbox from the checkout's src/, refusing any other copy."""
    if not (SRC / "quatbox" / "__init__.py").is_file():
        raise SystemExit(f"error: no quatbox package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import quatbox

    if Path(quatbox.__file__).resolve().parent != (SRC / "quatbox").resolve():
        raise SystemExit(f"error: imported quatbox from {quatbox.__file__}, not from {SRC}")
    return quatbox


def setup_probe(workload: str) -> float:
    """Seconds a fresh interpreter takes to import quatbox and build the shared objects."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(SRC)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Stats:
    """Latencies, items and failures of the requests run so far."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # what latencies are measured on
        self.intervals: list[tuple[float, float]] = []  # perf_counter at start and end
        self.latencies: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def cycle(self, workload, rng) -> list:
        """The next cycle's requests; if building them raises, one failed request."""
        try:
            return workload.cycle(rng)
        except Exception as exc:  # inputs are built with quatbox's own constructors
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"building inputs raised {type(exc).__name__}: {exc}")
            return []

    def run(self, workload, request) -> None:
        start, t0 = time.perf_counter(), self.clock()
        try:
            output = workload.execute(request)
        except Exception as exc:  # a request that raises is a failed request
            end, elapsed = time.perf_counter(), self.clock() - t0
            problem = f"{request.label}: raised {type(exc).__name__}: {exc}"
        else:
            end, elapsed = time.perf_counter(), self.clock() - t0
            try:
                problem = workload.check(request, output)
            except Exception as exc:  # output too malformed to check
                problem = f"{request.label}: checking it raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        self.intervals.append((start, end))
        self.latencies.append(elapsed)
        self.by_label.setdefault(request.label, []).append(elapsed)
        if problem is None:
            self.items += request.items
        else:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(problem)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def throughput(self, latencies: list[float] | None = None) -> float:
        busy = sum(self.latencies if latencies is None else latencies)
        return self.items / busy if busy else 0.0

    def calibrated(self, cal: calibrate.Calibrator) -> list[float]:
        """Each latency scaled to the reference machine speed while it ran."""
        return [lat * cal.scale(*span) for span, lat in zip(self.intervals, self.latencies)]

    @staticmethod
    def tail(latencies: list[float]) -> tuple[float, float]:
        """(latency, percentile) with TAIL_SAMPLES_ABOVE samples above it."""
        ordered = sorted(latencies) or [0.0]
        n = len(ordered)
        rank = max(n - 1 - TAIL_SAMPLES_ABOVE, 0)
        return ordered[rank], 100.0 * (rank + 1) / n


def measure(workload, rng, seconds: float):
    """Whole cycles until the wall clock passes `seconds`, set-up probes and calibration.

    The SETUP_PROBES probes are spread between the cycles, so that setup_s
    samples the same stretch of machine time as the requests do; kernel
    sampling pauses while a probe runs on the same CPU.  Returns the
    requests' stats, each probe's (seconds, start, end) and the kernel
    samples that calibrate them all.
    """
    cal = calibrate.Calibrator()
    stats, setup = Stats(cal.clock), []

    def probe():
        t0 = time.perf_counter()
        took = setup_probe(workload.name)
        setup.append((took, t0, time.perf_counter()))
        cal.sample()

    start = time.perf_counter()
    while (now := time.perf_counter()) < start + seconds:
        while len(setup) < SETUP_PROBES and len(setup) * seconds <= SETUP_PROBES * (now - start):
            probe()
        requests = stats.cycle(workload, rng)
        if not requests:
            break
        with cal.sampling():
            for request in requests:
                stats.run(workload, request)
    while len(setup) < SETUP_PROBES:
        probe()
    return stats, setup, cal


def quaternion_mul_ns(quatbox) -> float:
    """Median over 7 repeats of one Hamilton product in a fixed batch, in ns."""
    rows = np.random.default_rng(0).normal(size=(2, MUL_BATCH, 4)).tolist()
    ps = [quatbox.Quaternion(*r) for r in rows[0]]
    qs = [quatbox.Quaternion(*r) for r in rows[1]]
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        for p, q in zip(ps, qs):
            p * q
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / MUL_BATCH * 1e9


def traced_run(workload, rng, seconds: float, seed: int):
    import workloads

    # a fixed request list, so that every count repeats exactly for a seed.
    # Each request runs plain and traced back to back, in alternating order
    # so that neither pass gains from the other's warm caches, and both see
    # the same machine speed: their throughput ratio is the tracing overhead.
    cycles = max(1, round(seconds * workload.trace_cycles_per_s))
    plain, traced, spans = Stats(), Stats(), tracer.Tracer()
    spans.install()
    try:
        census = [workloads.run_cli(argv)[0] for argv in CENSUS]
    finally:
        spans.uninstall()
    for _ in range(cycles):
        for request in plain.cycle(workload, rng):
            traced_first = traced.attempted % 2 == 1
            if not traced_first:
                plain.run(workload, request)
            spans.current_request = traced.attempted
            spans.install()
            try:
                traced.run(workload, request)
            finally:
                spans.uninstall()
            if traced_first:
                plain.run(workload, request)
    summary = spans.summary()
    census_failed = sum(code != 0 for code in census)
    problems = plain.failures + traced.failures
    if census_failed:
        problems.append(f"census exit codes {census}")
    if summary["vandam.box_draws"] != summary["vandam.expected_box_draws"]:
        problems.append(f"box draws {summary['vandam.box_draws']} != inputs x mixed monomials "
                        f"{summary['vandam.expected_box_draws']}")
    OUT.mkdir(exist_ok=True)
    spans.save(OUT / f"spans-{workload.name}-seed{seed}.npz")
    failed = plain.failed + traced.failed + census_failed
    return plain, traced, summary, problems, failed, cycles


def machine_context() -> dict:
    ctx = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            ctx["cpu_model"] = next(line.split(":", 1)[1].strip()
                                    for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            ctx[f"l{level}_cache"] = size
    return ctx


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    context = machine_context()
    # One CPU for the whole run, set-up probes included (children inherit
    # it): the host's CPUs run at different, drifting speeds, and the
    # calibration kernel must time the CPU that the requests ran on.
    context["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {context["pinned_cpu"]})
    quatbox = import_package()
    import workloads

    workload = workloads.make(args.workload, GOLDEN)
    rng = np.random.default_rng(args.seed)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": context}
    print("context: " + json.dumps(context, sort_keys=True))

    if args.trace:
        plain, traced, summary, problems, failed, cycles = traced_run(
            workload, rng, args.seconds, args.seed)
        ratio = traced.throughput() / plain.throughput() if plain.items else 0.0
        values = {name: metric(value, "s" if name.endswith(".self_s") else "count")
                  for name, value in summary.items() if name not in tracer.INTERNAL}
        values["quaternion.mul_ns"] = metric(quaternion_mul_ns(quatbox), "ns")
        values["trace.throughput_ratio"] = metric(ratio, "ratio")
        attempted = plain.attempted + traced.attempted + len(CENSUS)
        print(f"traced {cycles} cycles ({len(traced.latencies)} requests, {summary['spans']} spans):"
              f" {traced.throughput():.6g} item/s traced vs {plain.throughput():.6g} item/s plain"
              f" (ratio {ratio:.4f})")
        report.update(cycles=cycles, summary=summary, failures=problems,
                      plain_throughput=plain.throughput(), traced_throughput=traced.throughput())
    else:
        stats, setup, cal = measure(workload, rng, args.seconds)
        latencies = stats.calibrated(cal)
        tail, pct = stats.tail(latencies)
        values = {
            "setup_s": metric(statistics.median(took * cal.scale(t0, t1)
                                                for took, t0, t1 in setup), "s"),
            "throughput_per_s": metric(stats.throughput(latencies), "item/s"),
            "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": metric(tail * 1e3, "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        attempted, failed, problems = stats.attempted, stats.failed, stats.failures
        print(f"latency_tail_ms is p{pct:.3f}: {TAIL_SAMPLES_ABOVE} of {stats.attempted} "
              f"samples lie above it")
        print(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
        raw_tail, _ = stats.tail(stats.latencies)
        report.update(setup_s_probes=setup, tail_percentile=pct, busy_s=stats.busy,
                      kernel_s={"n": len(cal.took), "median": statistics.median(cal.took),
                                "min": min(cal.took), "max": max(cal.took)},
                      uncalibrated={"setup_s": statistics.median(took for took, _, _ in setup),
                                    "throughput_per_s": stats.throughput(),
                                    "latency_p50_ms": statistics.median(stats.latencies) * 1e3,
                                    "latency_tail_ms": raw_tail * 1e3},
                      failures=problems,
                      latency_ms_by_label={k: {"n": len(v), "p50": statistics.median(v) * 1e3,
                                               "share_of_busy": sum(v) / stats.busy}
                                           for k, v in sorted(stats.by_label.items())})
    for name, m in values.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": values}
    report["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
