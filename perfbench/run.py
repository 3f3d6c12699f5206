"""Benchmark of phburgers: two study workloads, timed end to end or traced by layer.

Run from the root of a checkout (the sources are taken from ./src):

    python3 perfbench/run.py --workload viscous_fine --seed 0 --seconds 60 --trace 0

With ``--trace 0`` the workload is repeated, untraced, for most of
``--seconds`` seconds (at least three times), with the set-up timed in
SETUP_PROBES fresh interpreters spread between the repetitions, and the
end-to-end metrics are reported: mean wall and CPU seconds of one
repetition, the peak resident set of the process and its reaped workers
over the first repetition, and the median set-up time.  With
``--trace 1`` untraced and traced repetitions alternate in pairs, all
with workers=1; the per-layer metrics come from the traced spans, and
the tracing overhead is the median over pairs of traced minus untraced
wall time.  Every repetition's fingerprints are checked against
``reference.json``.

Wall and CPU seconds are means over the repetitions, not medians: the
shared host switches between a fast and a slow speed in phases of a few
repetitions, and the mean weighs each phase of the run by its length
where the median jumps to whichever phase holds most of the
repetitions, which leaves the run-to-run spread wider.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --write-reference

re-baselines ``reference.json`` from one run of each workload.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

# tracing and workloads import phburgers, so they are imported inside
# functions, once main() has put the checkout's src/ on the path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("viscous_fine", "study_coarse")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 3
SETUP_PROBES = 16  # timed fresh interpreters, after one untimed warm-up
RUN_SHARE = 0.95  # of --seconds, by which the last repetition or probe should end
MIN_PAIRS = 3  # fewer traced pairs leave the tracing overhead within noise

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
TRACE_METRICS = (
    ("trace.untraced_wall_s", "s", "baseline of the traced run (single process)"),
    ("trace.traced_wall_s", "s", "wall time with every layer traced"),
    ("trace.overhead_s", "s", "tracing overhead: median of traced minus untraced wall_s"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "nproc": nproc(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def cpu_seconds() -> float:
    """User plus system time of this process and of every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib() -> float:
    """Largest resident set of this process or of any child it has reaped."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


@dataclasses.dataclass
class Rep:
    wall: float
    cpu: float
    attempted: int
    failed: dict  # cell key -> reason
    spans: list | None = None


def repetition(workload, seed: int, workers: int, reference: dict, traced: bool) -> Rep:
    """One repetition in a fresh output directory, checked after the clock stops."""
    import tracing
    import workloads

    tracer = tracing.Tracer() if traced else None
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-"))
    try:
        cpu0 = cpu_seconds()
        t0 = perf_counter()
        try:
            with tracing.instrument(tracer) if traced else contextlib.nullcontext():
                outcome = workload.run(seed, workers, out_dir)
        except Exception:  # a broken program is a failed repetition, not a crash
            traceback.print_exc()
            outcome = workloads.Outcome([], dict)
        wall = perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        attempted, failed = workloads.check(workload.name, outcome, reference)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return Rep(wall, cpu, attempted, failed, tracer.spans if traced else None)


def setup_probe(workload) -> tuple[float, float]:
    """(set-up seconds, wall seconds of the whole probe) of one fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(Path.cwd() / "src"),
           repr(workload.setup.width), repr(workload.setup.nu)]
    t0 = perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]), perf_counter() - t0


def measure(args, workload, reference) -> tuple[dict, list[Rep], list[str]]:
    """Untraced repetitions with set-up probes between them, for about ``args.seconds``.

    The probes are spread evenly over the run, so that set-up time samples
    the same phases of the shared host as the repetitions do.
    """
    workers = nproc()
    t_start = perf_counter()
    t_end = t_start + RUN_SHARE * args.seconds
    reps = [repetition(workload, args.seed, workers, reference, traced=False)]
    # the first repetition's peak is what one command sees; later ones add
    # allocator fragmentation that varies from run to run, and the probes
    # become reaped children
    peak = peak_rss_mib()
    probe_wall = setup_probe(workload)[1]  # untimed warm-up of the file cache
    setups = []
    while True:
        share = (perf_counter() - t_start) / (t_end - t_start)
        while len(setups) < min(SETUP_PROBES, SETUP_PROBES * share):
            seconds, probe_wall = setup_probe(workload)
            setups.append(seconds)
        rest = (SETUP_PROBES - len(setups)) * probe_wall
        if len(reps) >= MIN_REPS and perf_counter() + reps[-1].wall + rest >= t_end:
            break
        reps.append(repetition(workload, args.seed, workers, reference, traced=False))
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload)[0])
    walls = [r.wall for r in reps]
    values = {
        "wall_s": statistics.fmean(walls),
        "cpu_s": statistics.fmean(r.cpu for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak,
    }
    notes = [
        f"{len(reps)} repetitions with workers={workers}, wall s: "
        + " ".join(f"{t:.4f}" for t in walls),
        f"setup_s over {len(setups)} fresh interpreters: "
        + " ".join(f"{t:.4f}" for t in setups),
    ]
    return values, reps, notes


def trace(args, workload, reference) -> tuple[dict, list[Rep], list[str]]:
    """Alternating untraced and traced repetitions; the per-layer metrics."""
    import tracing

    workers = 1  # spans cannot leave pool workers
    plain, traced = [], []
    t_end = perf_counter() + args.seconds
    while not traced or perf_counter() + plain[-1].wall + traced[-1].wall < t_end:
        plain.append(repetition(workload, args.seed, workers, reference, traced=False))
        traced.append(repetition(workload, args.seed, workers, reference, traced=True))
    per_rep = [tracing.layer_metrics(r.spans) for r in traced]
    values = {name: statistics.median(m[name] for m in per_rep)
              for name, _, _ in tracing.LAYER_METRICS}
    values["trace.untraced_wall_s"] = statistics.median(r.wall for r in plain)
    values["trace.traced_wall_s"] = statistics.median(r.wall for r in traced)
    values["trace.overhead_s"] = statistics.median(t.wall - p.wall for p, t in zip(plain, traced))

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.csv"
    tracing.write_spans(spans_path, [r.spans for r in traced])
    notes = [
        f"{len(traced)} traced and {len(plain)} untraced repetitions with workers=1: "
        "spans cannot leave pool workers, so study_coarse runs in one process",
        f"{sum(len(r.spans) for r in traced)} spans written to {spans_path}",
    ]
    if len(traced) < MIN_PAIRS:
        notes.append(f"trace.overhead_s is unresolved: {len(traced)} pair(s) of repetitions "
                     f"in {args.seconds:g} s, fewer than {MIN_PAIRS}, read within noise")
    return values, plain + traced, notes


def write_reference() -> int:
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: [dataclasses.asdict(fp) for fp in
                       workloads.WORKLOADS[name].run(0, nproc(), Path(tmp) / name).fingerprints]
                for name in WORKLOAD_NAMES}
    reference = workloads.load_reference()
    reference["workloads"] = runs
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")

    src = Path.cwd() / "src"
    if not (src / "phburgers" / "__init__.py").is_file():
        print(f"error: no phburgers sources in {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # one BLAS thread here and in every worker, so threads never exceed cores
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # temporary files stay inside the checkout
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(src))

    import phburgers
    import tracing
    import workloads

    if not Path(phburgers.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: phburgers imported from {phburgers.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()

    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    print("env " + json.dumps(environment()))
    if args.trace:
        values, reps, notes = trace(args, workload, reference)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS + TRACE_METRICS}
        moves = {name: why for name, _, why in tracing.LAYER_METRICS + TRACE_METRICS}
    else:
        values, reps, notes = measure(args, workload, reference)
        units = dict(END_TO_END)
        moves = {}

    attempted = sum(r.attempted for r in reps)
    failures = [f"{key}: {why}" for r in reps for key, why in r.failed.items()]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, value in values.items():
        extra = f"  -> {moves[name]}" if name in moves else ""
        print(f"  {name:40s} {value:>14.6g} {units[name]}{extra}")
    print(f"  {'failed_frac':40s} {len(failures) / attempted:>14.6g} "
          f"({len(failures)} of {attempted} simulations)")
    for failure in failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
