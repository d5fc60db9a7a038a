"""treedecomp benchmark: one closed-loop client, one process, one worker.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload campaign|label-catalog|construct \
        --seed N --seconds S --trace 0|1

It imports ``treedecomp`` from ``src/`` of the checkout and times each
module from outside through its public functions. The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. End-to-end times are scaled to a reference machine speed
measured during the run (see ``SpeedProbe``); the measured times are printed
next to them. The exit code is 1 when any output is wrong and 2 when the
checkout has no sources. See README.md in this directory.
"""

from __future__ import annotations

import os

# Pinned before anything imports numpy: unpinned, OpenBLAS starts a thread
# pool whose first call costs about 0.9 s, and threads would contend with
# the single client for the machine's two cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
PROBE_INTERVAL_S = 0.05
PROBE_QUEENS = 7
# Mean probe time on the 2-core 2.1 GHz host (Python 3.11) where the
# baseline was recorded; it only fixes the unit.
REFERENCE_PROBE_S = 0.0004

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import treedecomp; "
    "print(time.perf_counter() - t)"
)


def time_import() -> float:
    """Seconds to import treedecomp in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout)


def git_head() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own
    return lines[1]


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_head": git_head(),
    }


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics
    averaged with the weights a Beta((n+1)p, (n+1)(1-p)) law puts on each
    rank. Unlike a single order statistic it moves smoothly where the items
    leave a gap, as the campaign's median does: it falls on the one n=5
    record between the n=8 records (about 40 ms) and the n=9 ones (about
    170 ms)."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n, sub = len(x), 16
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    grid = (np.arange(n * sub) + 0.5) / (n * sub)
    log_density = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    weights = np.exp(log_density - log_density.max()).reshape(n, sub).sum(axis=1)
    return float(weights @ x / weights.sum())


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND
    samples beyond it; the median when no percentile above it has that many."""
    pct = max(1 - TAIL_BEYOND / len(values), 0.5)
    return quantile(values, pct), 100.0 * pct


def _queens(n: int) -> int:
    """Solutions of the n-queens puzzle by backtracking: a fixed piece of
    interpreter work of the same kind as the program's searches."""
    cols, up, down = [False] * n, [False] * (2 * n), [False] * (2 * n)

    def place(r: int) -> int:
        if r == n:
            return 1
        found = 0
        for c in range(n):
            if not (cols[c] or up[r + c] or down[r - c + n]):
                cols[c] = up[r + c] = down[r - c + n] = True
                found += place(r + 1)
                cols[c] = up[r + c] = down[r - c + n] = False
        return found

    return place(0)


class SpeedProbe:
    """Times a fixed piece of work every PROBE_INTERVAL_S of wall time.

    The host shares its cores with other tenants, and the program runs
    15-40 % slower for stretches of seconds to minutes. A probe sampled
    evenly in time across a pass slows by about the same factor (less
    closely for numpy and large sets), so REFERENCE_PROBE_S / mean(probe)
    converts the pass's times to seconds at the reference speed. ``spent`` is the probe's own time, which the
    caller subtracts from what it measures.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _queens(PROBE_QUEENS)
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def clock(self) -> float:
        """perf_counter without the probe's own time."""
        return time.perf_counter() - self.spent

    def __enter__(self):
        self._sample(None, None)
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample(None, None)

    def scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.fmean(self.samples)


def timed_phase(workload, prepared, seconds: float) -> list:
    """Whole passes over the same inputs until the next would end after
    ``seconds``; at least one. Each pass carries its probe's scale. The next
    pass is predicted from the last one's timed part, because only the
    first pass of ``construct`` runs the full (slow) output checks."""
    passes = []
    start = time.perf_counter()
    while True:
        expected = passes[0].digests if passes else None
        with SpeedProbe() as probe:
            result = workload.run_pass(prepared, expected, probe.clock)
        result.scale = probe.scale()
        passes.append(result)
        if time.perf_counter() - start + result.run_s > seconds:
            return passes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "label-catalog", "construct"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "treedecomp" / "__init__.py").is_file():
        print(f"perfbench: no treedecomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import treedecomp

    if Path(treedecomp.__file__).resolve().parent != SRC / "treedecomp":
        print(f"perfbench: imported treedecomp from {treedecomp.__file__}", file=sys.stderr)
        return 2
    import layers
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            result = measure(workload, args, Path(tmp), layers, spans)
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(workload, args, workdir: Path, layers, spans) -> dict:
    setup = []
    with SpeedProbe() as setup_probe:
        for _ in range(SETUP_REPEATS):
            import_s = time_import()
            start = setup_probe.clock()
            prepared = workload.prepare(args.seed, workdir)
            setup.append(import_s + setup_probe.clock() - start)

    passes = timed_phase(workload, prepared, args.seconds)
    traced = None
    if args.trace:
        rec = spans.Recorder()
        with rec.installed(layers.targets()):
            traced = workload.run_pass(workload.prepare(args.seed, workdir), passes[0].digests)
        passes_checked = passes + [traced]
    else:
        passes_checked = passes

    attempted = sum(len(p.item_s) for p in passes_checked)
    failures = [f for p in passes_checked for f in p.failures]
    attempted = max(attempted, len(failures), 1)
    # Times at the reference speed. One sample per item, its median over
    # the passes, so the sample count and the tail percentile stay fixed
    # however many passes fit.
    items = [
        statistics.median(ts) for ts in zip(*([t * p.scale for t in p.item_s] for p in passes))
    ]
    run_s = sum(items) + statistics.median(
        (p.run_s - sum(p.item_s)) * p.scale for p in passes
    )
    item_tail, tail_pct = tail(items)
    skipped = sum(p.skipped for p in passes)
    instances = sum(p.instances for p in passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    end_to_end = {
        "setup_s": (
            statistics.median(setup) * setup_probe.scale(), "s",
            f"median of {SETUP_REPEATS} set-ups (measured {statistics.median(setup):.4g})",
        ),
        "run_s": (
            run_s, "s",
            f"one pass, each item at its median of {len(passes)} (measured median pass "
            f"{statistics.median(p.run_s for p in passes):.4g}, "
            f"speed scale {statistics.median(p.scale for p in passes):.3f})",
        ),
        "item_p50_ms": (quantile(items, 0.5) * 1e3, "ms", f"{len(items)} items, median pass each"),
        "item_tail_ms": (
            item_tail * 1e3, "ms",
            f"p{tail_pct:.2f} of {len(items)} items, {TAIL_BEYOND} beyond"
            if tail_pct > 50 else
            f"p50 of {len(items)} items: no higher percentile has {TAIL_BEYOND} beyond",
        ),
        "pass_ratio": (1 - len(failures) / attempted, "ratio", "1 - fail_ratio"),
        "checked_ratio": (
            1 - skipped / instances if instances else 1.0, "ratio", "1 - skip_ratio",
        ),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss"),
    }
    print(f"perfbench {workload.name} seed={args.seed} passes={len(passes)}")
    for name, (value, unit, note) in end_to_end.items():
        print(f"  {name:<14} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'fail_ratio':<14} {len(failures) / attempted:>14.6g} {'ratio':<6} "
          f"{len(failures)}/{attempted} items")
    print(f"  {'skip_ratio':<14} {skipped / instances if instances else 0:>14.6g} "
          f"{'ratio':<6} {skipped}/{instances} check instances")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(environment()))

    if traced is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in end_to_end.items()}
    else:
        untraced_s = statistics.median(p.run_s for p in passes)
        metrics = layers.per_layer_metrics(rec, traced.records, untraced_s, traced.run_s)
        print("per-layer (one traced set-up and pass):")
        for name, m in metrics.items():
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
