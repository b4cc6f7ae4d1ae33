"""Certification benchmark for skewprod.

    python3 bench/run.py --workload graph-suite --seed 1 --seconds 30 --trace 0
    python3 -m pytest bench -q          # the benchmark's own tests

Run from the root of a source checkout: the package is imported from
``src/``, never from an installed copy.  One process runs one workload, one
case at a time, in the main thread (``workloads.py`` defines the three
workloads and the checks on their results).

Set-up is the import of ``skewprod`` plus three repetitions of: making the
first inputs of a fixed plan and running one untimed warm-up case (see
``setup``).  The
three warm-up results must be byte-identical JSON.  Then the cases planned
from ``--seed`` run in a closed loop, each timed around the public call with
``perf_counter``, until ``--seconds`` have passed.  Every result must meet
the predicates the acceptance suite reads.

With ``--trace 0`` the end-to-end metrics are printed:

  setup_s            import time + median set-up repetition
  cases_per_s        passed cases per second of case wall time
  case_s.p50         median case wall time (Harrell-Davis estimate)
  case_s.tail        a fixed percentile per workload (``tail`` in
                     ``workloads.py``): the highest with ten cases beyond it
                     at the workload's usual case count in 30 seconds
  cpu_s_per_case     process CPU time per case, BLAS threads included
  peak_rss_mb        peak resident memory at the end of set-up
  cases_passed_frac  passed cases / attempted cases

Times are weighted so that each size bin of the plan counts equally, and are
given at the host's reference speed (see ``HostSpeed``): a shared host's
speed drifts for every process on it (median scale factors of runs of the
same code have ranged from 0.6 to 1.4 within an hour), so every timed interval samples a fixed reference kernel while it runs
and is scaled by how fast that kernel went against its nominal time.  The
table also prints the median scale factor, so raw times can be recovered.

With ``--trace 1`` each case runs twice, untraced and traced (alternating which
goes first), and the per-layer metrics from ``tracer.py`` are printed, per
case, with the tracing overhead.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the environment.  The exit code is 1 if any check
failed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# Time of one reference kernel pass (``HostSpeed``) on a 2-vCPU x86-64 host,
# with numpy 2.4 and scipy 1.17, at its usual unloaded speed.
REF_KERNEL_S = 0.0006
SAMPLE_PERIOD_S = 0.02
# Set-up warms the process with a case from this fixed seed, so set-up time
# does not vary with --seed.
WARMUP_SEED = 0
CERTIFIERS = (
    "duality.certify_eqvt_iso",
    "duality.certify_direct_iso",
    "duality.certify_regular_diagram",
    "groupoids.certify_gpd_iso",
    "groupoids.certify_semi_cross",
    "groupoids.certify_full_groupoid",
)


def load_skewprod(root: Path = ROOT, clock: Stopwatch | None = None) -> float:
    """Import skewprod from ``root/src``; return the import time by ``clock``."""
    src = root / "src"
    if not (src / "skewprod" / "__init__.py").is_file():
        raise SystemExit(f"bench: no skewprod sources under {src}")
    sys.path.insert(0, str(src))
    clock = clock or Stopwatch()
    with clock:
        import skewprod

    if Path(skewprod.__file__).resolve().parent != (src / "skewprod").resolve():
        raise SystemExit(f"bench: skewprod was imported from {skewprod.__file__}")
    return clock.wall


def headroom(cert: dict) -> float:
    """Largest error of a certificate dict as a share of its tolerance."""
    errors = [cert.get("equivariance_error") or 0.0]
    errors.append((cert.get("star_map") or {}).get("max_error", 0.0))
    errors += [v for k, v in (cert.get("extra") or {}).items() if k.endswith("_error")]
    return max(float(e) for e in errors) / cert["tolerance"]


def weighted_quantile(values, weights, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile of weighted samples.

    It averages all order statistics with Beta weights, which is steadier
    than the one or two middle order statistics when a run has only a dozen
    cases; weights enter through the cumulative weights and the Kish
    effective sample size (Akinshin's weighted Harrell-Davis estimator).
    """
    from scipy.special import betainc

    pairs = sorted(zip(values, weights))
    total = sum(w for _, w in pairs)
    n = total**2 / sum(w * w for _, w in pairs)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    estimate, acc, prev = 0.0, 0.0, 0.0
    for k, (x, w) in enumerate(pairs):
        acc = 1.0 if k == len(pairs) - 1 else acc + w / total
        cdf = float(betainc(a, b, acc))
        estimate += (cdf - prev) * x
        prev = cdf
    return estimate


def bin_weights(n: int, n_bins: int) -> list[float]:
    """Case i comes from size bin i % n_bins; weigh each bin equally, so a
    partial last round through the bins does not tilt the size mix."""
    counts = [len(range(b, n, n_bins)) for b in range(n_bins)]
    return [1 / counts[i % n_bins] for i in range(n)]


class Stopwatch:
    """Wall and CPU time of the body of a ``with`` block."""

    wall = cpu = 0.0

    def __enter__(self):
        self._c0, self._t0 = time.process_time(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._t0
        self.cpu = time.process_time() - self._c0


class HostSpeed(Stopwatch):
    """A stopwatch that gives times at the host's reference speed.

    While the body runs, a timer signal every SAMPLE_PERIOD_S interrupts it
    (between Python bytecodes) to time one pass of a fixed reference kernel:
    a small sparse product and format conversion, a small dense QR and a
    loop of dict updates in Python, the kinds of work a case does.  The
    kernel's time is taken out of the body's wall and CPU time, which are
    then scaled by REF_KERNEL_S over the median kernel time.  So a body run
    while the host is slow is scaled down by as much as the kernel slowed,
    sampled over the body's own lifetime.  The kernel runs no skewprod code,
    so a change to the package moves the body's time, not the scale.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        self._a = sp.random(200, 200, density=0.02, random_state=1, format="csr")
        self._b = np.random.default_rng(0).standard_normal((32, 32))
        self._kernel()  # lazy imports and first-call set-up happen here
        self._on = False
        self._samples: list[float] = []
        self.factors: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _kernel(self) -> float:
        import numpy as np

        t0 = time.perf_counter()
        (self._a @ self._a.T).tocsc()
        np.linalg.qr(self._b @ self._b)
        d: dict[int, int] = {}
        for i in range(1000):
            d[i % 97] = d.get(i % 97, 0) + i
        return time.perf_counter() - t0

    def _sample(self, signum, frame):
        if self._on:  # a signal can arrive after the timer is stopped
            self._samples.append(self._kernel())

    def __enter__(self):
        self._samples = []
        self._on = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return super().__enter__()

    def __exit__(self, *exc):
        super().__exit__(*exc)
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._on = False
        sampled = sum(self._samples)
        samples = self._samples or [self._kernel()]  # a body shorter than a period
        factor = REF_KERNEL_S / statistics.median(samples)
        self.factors.append(factor)
        self.wall = (self.wall - sampled) * factor
        self.cpu = max(self.cpu - sampled, 0.0) * factor


class Run:
    """Outcome counters and checks of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.problems: list[str] = []
        self.headroom = dict.fromkeys(CERTIFIERS, 0.0)
        self.attempted = 0
        self.failed = 0

    def call(self, inp, clock: Stopwatch | None = None):
        """Run one case timed by ``clock``; return (wall seconds, CPU seconds,
        outcome or None)."""
        clock = clock or Stopwatch()
        result = None
        with clock:
            try:
                result = self.workload.call(inp)
            except Exception:
                self.problems.append("case raised:\n" + traceback.format_exc())
        outcome = None if result is None else self.workload.check(result)
        return clock.wall, clock.cpu, outcome

    def count(self, outcome) -> bool:
        """Record a timed case; True if it passed."""
        self.attempted += 1
        if outcome is None or outcome.problems:
            self.failed += 1
            if outcome is not None:
                self.problems.append(f"case failed: {outcome.problems}")
            return False
        for name, cert in outcome.certificates.items():
            self.headroom[name] = max(self.headroom[name], headroom(cert))
        return True

    def require_identical(self, records, what: str):
        if len(set(records)) > 1:
            self.problems.append(f"{what}: results differ between calls on one input")


def setup(workload, seed: int, run: Run, repeats: int,
          clock: Stopwatch | None = None) -> tuple[list, float]:
    """Set up ``repeats`` times; return the run's inputs and the median time
    by ``clock``.

    One set-up makes the first inputs of a plan from WARMUP_SEED, up to a
    mid-size case, and runs that case as the warm-up.  Fixed inputs keep set-up time and memory
    independent of --seed; the run's own inputs are made afterwards, by the
    same code.
    """
    times, records = [], []
    clock = clock or Stopwatch()
    for _ in range(repeats):
        with clock:
            # Plans go through the size bins from the largest; this slot is
            # bin 4 of 8, and a plan cut short after it still holds it.
            slot = workload.n_bins // 2
            _, _, outcome = run.call(workload.plan(WARMUP_SEED, slot + 1)[slot])
        times.append(clock.wall)
        if outcome is None or outcome.problems:
            run.problems.append(f"warm-up case failed: {outcome and outcome.problems}")
        else:
            records.append(outcome.record)
    run.require_identical(records, "warm-up")
    print("set-up repeats (s):", " ".join(f"{t:.3f}" for t in times))
    return workload.plan(seed), statistics.median(times)


def measure(workload, seed: int, seconds: float, import_s: float,
            speed: HostSpeed) -> tuple[Run, dict]:
    run = Run(workload)
    inputs, setup_s = setup(workload, seed, run, SETUP_REPEATS, speed)
    setup_peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    walls, cpus, passed = [], [], 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, cpu, outcome = run.call(inputs[len(walls) % len(inputs)], speed)
        walls.append(wall)
        cpus.append(cpu)
        passed += run.count(outcome)
    n = len(walls)
    tail = workload.tail
    weights = bin_weights(n, workload.n_bins)
    mean_wall = sum(w * t for w, t in zip(weights, walls)) / sum(weights)
    mean_cpu = sum(w * t for w, t in zip(weights, cpus)) / sum(weights)
    print(f"{n} cases; case_s.tail is p{tail}; times at reference speed, "
          f"median scale factor {statistics.median(speed.factors):.4f}")
    return run, {
        "setup_s": (import_s + setup_s, "s"),
        "cases_per_s": (passed / run.attempted / mean_wall, "1/s"),
        "case_s.p50": (weighted_quantile(walls, weights, 50), "s"),
        "case_s.tail": (weighted_quantile(walls, weights, tail), "s"),
        "cpu_s_per_case": (mean_cpu, "s"),
        "peak_rss_mb": (setup_peak_rss / 2**20, "MB"),
        "cases_passed_frac": (passed / run.attempted, "frac"),
    }


def measure_traced(workload, seed: int, seconds: float) -> tuple[Run, dict]:
    from tracer import DUP_BUILDERS, Tracer

    run = Run(workload)
    inputs, _ = setup(workload, seed, run, 1)
    tr = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        inp = inputs[len(traced) % len(inputs)]
        records = []
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if with_trace:
                tr.install()
                tr.begin_case()
            try:
                wall, _, outcome = run.call(inp)
            finally:
                tr.uninstall()
            (traced if with_trace else plain).append(wall)
            run.count(outcome)
            records.append(outcome.record if outcome else None)
        run.require_identical(records, "traced and untraced case")
    for name in workload.expected:
        if tr.stats[name].calls == 0:
            run.problems.append(f"trace: no calls to {name} recorded")

    n = len(traced)
    metrics = {}
    for name, st in tr.stats.items():
        metrics[f"{name}.calls"] = (st.calls / n, "calls/case")
        metrics[f"{name}.incl_s"] = (st.incl_s / n, "s/case")
        metrics[f"{name}.self_s"] = (st.self_s / n, "s/case")
    metrics["scipy.csr_new.calls"] = (tr.csr_new / n, "calls/case")
    for name, _, _ in DUP_BUILDERS:
        metrics[f"{name}.dup_frac"] = (tr.dup_frac(name), "frac")
    for name, value in run.headroom.items():
        metrics[f"{name}.headroom"] = (value, "ratio")
    metrics["trace.overhead_frac"] = (sum(traced) / sum(plain) - 1, "frac")
    metrics["trace.coverage_frac"] = (tr.top_s / sum(traced), "frac")
    metrics["src.lines"] = (float(src_lines()), "lines")
    return run, metrics


def src_lines(root: Path = ROOT) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def git_commit(root: Path = ROOT) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    def blas(config) -> str:
        try:
            info = config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return f"{info.get('name')} {info.get('version')}"

    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    ncpu = os.cpu_count()
    return {
        "nproc": ncpu,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas(scipy.show_config),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")
        or f"OPENBLAS_NUM_THREADS unset (OpenBLAS default: {ncpu})",
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("graph-suite", "groupoid-suite", "eqvt-single"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # HostSpeed imports numpy and scipy.sparse, which the import time then
    # leaves out; the traced run reports no set-up time.
    speed = None if args.trace else HostSpeed()
    import_s = load_skewprod(clock=speed)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        run, metrics = measure_traced(workload, args.seed, args.seconds)
    else:
        run, metrics = measure(workload, args.seed, args.seconds, import_s, speed)

    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<58} {value:>14.6g} {unit}")
    print(json.dumps({"environment": environment()}))
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
