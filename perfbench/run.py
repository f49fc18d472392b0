"""framescale benchmark: one workload as one closed-loop caller in one process.

    python3 perfbench/run.py --workload balance --seed 1 --seconds 20 --trace 0

Run from a checkout: framescale is imported from ``src/`` next to this
directory, and the run fails with exit code 2 when it is not there.  With
``--trace 0`` the run times units with no wrappers installed and prints the
end-to-end metrics; with ``--trace 1`` it runs each cycle of units untraced
and traced, and prints the per-layer metrics.  Every line before the last is
for people; the last line is the JSON result.  See README.md in this directory.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".perfbench"
# unit_ms_p90 is reported only with ten units beyond it, so a run does at
# least this many units, however short --seconds is
MIN_UNITS = 100
# set-ups per timed run, each in a fresh process; setup_s is their median
SETUPS = 3
# units whose outputs the digest covers; every run does at least these
DIGEST_UNITS = 30
# one caller and no extra threads: BLAS runs single-threaded unless the
# caller sets these variables itself
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# (metric, unit); the names and units BENCHMARK.json lists under end_to_end
END_TO_END = (
    ("units_per_s", "1/s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)


class Pass:
    """Outcome of running a sequence of units once each."""

    def __init__(self):
        self.durations_ns = []
        # host-speed reference time after each unit; timed runs only
        self.reference_ns = []
        self.failures = []  # (unit index, list of reasons)
        self.sha = hashlib.sha256()
        self.busy_ns = 0

    @property
    def digest(self):
        return self.sha.hexdigest()

    @property
    def busy_s(self):
        return self.busy_ns / 1e9


def run_unit(workload, i, out, tracer=None):
    """Run unit ``i`` into ``out``; a unit that raises is a failed unit.

    Only the public call is timed: building the inputs and checking the
    output stay outside the timed region.
    """
    inputs = workload.inputs(i)
    if tracer is not None:
        tracer.unit = i
    start = time.perf_counter_ns()
    try:
        result = workload.call(inputs)
    except Exception:
        result, problems = None, [traceback.format_exc()]
    elapsed = time.perf_counter_ns() - start
    if tracer is not None:
        tracer.unit = None
    if result is not None:
        problems = workload.check(inputs, result)
    if problems:
        out.failures.append((i, problems))
    elif i < DIGEST_UNITS:
        out.sha.update(workload.digest(result))
    out.durations_ns.append(elapsed)
    out.busy_ns += elapsed


def run_units(workload, seconds):
    """Run units in index order, each starting when the previous returns.

    Measures the host-speed reference after each unit.  Stops once the
    timed calls have taken ``seconds`` in total, at least MIN_UNITS units
    have run and the last cycle of the workload is complete.
    """
    import hostspeed

    out = Pass()
    limit_ns = int(seconds * 1e9)
    i = 0
    while out.busy_ns < limit_ns or i < MIN_UNITS or i % workload.cycle:
        run_unit(workload, i, out)
        out.reference_ns.append(hostspeed.reference_ns())
        i += 1
    return out


def set_up(workload_cls, seed):
    """Build a workload's inputs and run one cycle of units untimed."""
    workload = workload_cls(seed)
    workload.prepare()
    for i in range(workload.cycle):
        workload.call(workload.inputs(i))
    return workload


def unit_times(ms) -> dict:
    """units_per_s, unit_ms_p50 and unit_ms_p90 of the unit times ``ms``."""
    ms = sorted(ms)
    p90 = statistics.quantiles(ms, n=10)[8]
    beyond = sum(1 for x in ms if x > p90)
    if beyond < 10:
        raise RuntimeError(f"only {beyond} units above unit_ms_p90; need 10")
    return {"units_per_s": len(ms) / (sum(ms) / 1e3),
            "unit_ms_p50": statistics.median(ms), "unit_ms_p90": p90}


def end_to_end_metrics(timed: Pass, setup_s: float) -> dict:
    """The END_TO_END metrics, with unit times scaled by the host speed."""
    import hostspeed

    ms = [hostspeed.scaled(d, r) / 1e6
          for d, r in zip(timed.durations_ns, timed.reference_ns)]
    values = {
        **unit_times(ms),
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": 1.0 - len(timed.failures) / len(timed.durations_ns),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def git_commit(root: Path):
    """Commit of the checkout read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import framescale
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "framescale": framescale.__version__,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def import_framescale():
    """Import framescale from this checkout's src/; ImportError if it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import framescale

    if not Path(framescale.__file__).resolve().is_relative_to(src):
        raise ImportError(f"framescale resolved to {framescale.__file__}, "
                          f"not to {src}")


def setup_sample(workload_cls, seed):
    """Set up, then return the workload and the seconds since process start.

    The seconds are scaled by the host speed, measured three times right
    after the set-up.
    """
    import hostspeed

    workload = set_up(workload_cls, seed)
    elapsed_ns = (time.perf_counter() - _START) * 1e9
    reference = statistics.median(hostspeed.reference_ns() for _ in range(3))
    return workload, hostspeed.scaled(elapsed_ns, reference) / 1e9


def cold_setups(workload_cls, seed, count):
    """``setup_s`` of ``count`` fresh processes, started one after another.

    Each child imports framescale, sets up and exits, so every sample pays
    for imports and for caches built at module level or on first use.
    """
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload_cls.name, "--seed", str(seed),
               "--seconds", "1", "--trace", "0", "--setup-only"]
    times = []
    for _ in range(count):
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=120, check=True)
        times.append(float(child.stdout.splitlines()[-1]))
    return times


def timed_run(workload_cls, seed, seconds):
    """Set up, then time units with no wrappers installed.

    ``setup_s`` is the median, over this process and SETUPS - 1 fresh ones,
    of the time from process start to the first timed unit.  Every time is
    scaled by the host speed (see hostspeed.py).
    """
    import tracing

    if tracing.installed():
        raise RuntimeError("tracing wrappers are installed in a timed run")
    workload, setup_s = setup_sample(workload_cls, seed)
    setups = [setup_s] + cold_setups(workload_cls, seed, SETUPS - 1)
    timed = run_units(workload, seconds)
    return {
        "passes": [timed],
        "problems": [],
        "metrics": end_to_end_metrics(timed, statistics.median(setups)),
        "detail": {"units": len(timed.durations_ns), "timed_s": timed.busy_s,
                   "setups_s": setups,
                   "reference_ms_p50": statistics.median(timed.reference_ns) / 1e6,
                   "unscaled": unit_times([d / 1e6 for d in timed.durations_ns]),
                   "digest": timed.digest},
    }


def traced_run(workload_cls, seed, seconds):
    """Run each cycle of units untraced and traced, for ``seconds`` in all.

    The two passes alternate cycle by cycle, and which of them goes first
    alternates too, so both see the same host state and the same warm
    caches.  The set-up is traced and its spans are recorded as unit -1.
    """
    import tracing

    tracer = tracing.Tracer()
    with tracer:
        tracer.unit = -1
        workload = set_up(workload_cls, seed)
        tracer.unit = None
    plain, traced = Pass(), Pass()
    first = 0
    while plain.busy_s + traced.busy_s < seconds or first < DIGEST_UNITS:
        block = range(first, first + workload.cycle)
        traced_first = (first // workload.cycle) % 2 == 1
        for trace in (traced_first, not traced_first):
            if trace:
                with tracer:
                    for i in block:
                        run_unit(workload, i, traced, tracer)
            else:
                for i in block:
                    run_unit(workload, i, plain)
        first += workload.cycle
    problems = []
    if traced.digest != plain.digest:
        problems.append("traced outputs differ from untraced outputs")
    units = len(traced.durations_ns)
    metrics = tracing.layer_metrics(tracer.spans, units,
                                    1.0 - plain.busy_s / traced.busy_s)
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"spans-{workload_cls.name}-seed{seed}.json.gz"
    tracing.write_spans(path, tracer.spans, {
        "workload": workload_cls.name, "seed": seed, "units": units,
        "metrics": metrics})
    return {
        "passes": [plain, traced],
        "problems": problems,
        "metrics": metrics,
        "detail": {"units": units, "untraced_s": plain.busy_s,
                   "traced_s": traced.busy_s, "spans": len(tracer.spans),
                   "spans_file": str(path.relative_to(ROOT)),
                   "digest": traced.digest},
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the seconds since process "
                             "start and exit (the timed run's set-up samples)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    try:
        import_framescale()
    except ImportError as exc:
        print(f"perfbench: cannot import framescale from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload_cls = WORKLOADS[args.workload]
    if args.setup_only:
        print(setup_sample(workload_cls, args.seed)[1])
        return 0
    if args.trace:
        report = traced_run(workload_cls, args.seed, args.seconds)
    else:
        report = timed_run(workload_cls, args.seed, args.seconds)
    failures = [f for p in report["passes"] for f in p.failures]
    for index, reasons in failures:
        print(f"perfbench: unit {index} failed:", *reasons, sep="\n  ", file=sys.stderr)
    for reason in report["problems"]:
        print(f"perfbench: {reason}", file=sys.stderr)
    for name, metric in report["metrics"].items():
        print(f"{name:<45} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      **report["detail"], "env": environment(args.seed)}))
    print(json.dumps({
        "correct": not failures and not report["problems"],
        "attempted": sum(len(p.durations_ns) for p in report["passes"]),
        "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
