"""Benchmark of the twotier package on three seeded workloads.

Run from the root of a twotier checkout:

    python3 bench/run.py --workload design-eu28 --seed 11 --seconds 36 --trace 0

The package is imported from ``src/`` of the checkout; nothing is built or
installed.  Rounds of the workload run one after another and stop at the
round boundary nearest to ``--seconds``.  With ``--trace 0`` the last stdout line
is the JSON result with the end-to-end metrics; with ``--trace 1`` the first
half of the time runs untraced and the second half traced, and the result
carries the per-layer metrics.  Lines before it give the run manifest and
every metric with its unit.  Outputs, fingerprints and span dumps go to
``.bench_out/`` in the checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS_PER_ROUND = 10


class Round:
    """Operations attempted and checks failed in one round."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextlib.contextmanager
    def op(self, name: str):
        self.attempted += 1
        errors_before = len(self.errors)
        if self.tracer:
            self.tracer.begin_op(name)
        try:
            yield
        except Exception:
            self.errors.append(f"{name}: {traceback.format_exc()}")
        finally:
            if self.tracer:
                self.tracer.end_op()
        if len(self.errors) > errors_before:
            self.failed += 1

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)


def import_twotier():
    """Import twotier afresh from the checkout's src/, so that every set-up
    pays the package's import-time work."""
    for name in [n for n in sys.modules if n == "twotier" or n.startswith("twotier.")]:
        del sys.modules[name]
    package = importlib.import_module("twotier")
    if Path(package.__file__).resolve().parent != SRC / "twotier":
        raise SystemExit(f"error: imported twotier from {package.__file__}, not from {SRC}")
    return package


def tree_sha256(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout; None when it is not a git repository or git is
    not installed."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(args, workload, run_seconds) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "source_sha256": tree_sha256(SRC / "twotier"),
        "bench_sha256": tree_sha256(Path(__file__).resolve().parent),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": run_seconds,
        "trace": args.trace,
        "settings": workload.settings,
    }


def measure(workload, seconds, setup_times, tracer=None):
    """Run rounds and stop at the round boundary nearest to ``seconds``
    (at least one round), taking the next round to last as long as the last.

    Each round starts from a fresh import of twotier: the set-ups are spread
    over the whole run, so their median sees the machine as the rounds do,
    and no cache of the package carries over from one round to the next.
    Returns (round, wall seconds, facts, span range) per round.
    """
    results = []
    start = time.perf_counter()
    while True:
        for _ in range(SETUPS_PER_ROUND):
            t0 = time.perf_counter()
            tw = import_twotier()
            state = workload.setup(tw)
            setup_times.append(time.perf_counter() - t0)
        gc.collect()  # the discarded package's cycles, outside the timed round
        rnd = Round(tracer)
        if tracer:
            tracer.install(tw)
        lo = len(tracer.spans) if tracer else 0
        try:
            t0 = time.perf_counter()
            facts = workload.run(tw, state, rnd)
            wall = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        hi = len(tracer.spans) if tracer else 0
        results.append((rnd, wall, facts, (lo, hi)))
        if time.perf_counter() - start + wall / 2 > seconds:
            return results


def self_check(key: str, record: dict) -> list[str]:
    """Compare this run's exact results with the last run of the same program
    and benchmark code, workload, seed and settings; store them when there is
    none yet."""
    path = OUT / "fingerprints.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    previous = stored.setdefault(key, {})
    problems = [
        f"{name}: {previous[name]!r} in an earlier run, {value!r} now"
        for name, value in record.items()
        if name in previous and previous[name] != value
    ]
    previous.update(record)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True))
    return problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=11, help="workload seed (default 11, as in criterion 10)")
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twotier" / "__init__.py").is_file() or not (ROOT / workloads.EU28).is_file():
        print(f"error: {ROOT} is not a twotier checkout (src/twotier or {workloads.EU28} missing)", file=sys.stderr)
        return 2
    import numpy  # noqa: F401  loaded before setup so setup_s times twotier alone
    import scipy.special  # noqa: F401

    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, ROOT, args.seed, OUT)

    info = manifest(args, workload, args.seconds)
    print("manifest " + json.dumps(info, sort_keys=True), flush=True)

    setup_times: list[float] = []
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = measure(workload, untraced_seconds, setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = []
    if args.trace:
        tracer = spans.Tracer()
        traced = measure(workload, args.seconds / 2, [], tracer)

    rounds = untraced + traced
    attempted = sum(r.attempted for r, *_ in rounds)
    failed = sum(r.failed for r, *_ in rounds)
    errors = [e for r, *_ in rounds for e in r.errors]

    # self-checks, one operation each: exact results repeat between rounds
    # (when there are two to compare), between runs, and every traced
    # boundary that should be busy was
    facts = untraced[0][2]
    checks = {}
    if len(rounds) > 1:
        checks["facts repeat between rounds"] = [
            f"round {i}" for i, (_, _, f, _) in enumerate(rounds) if f != facts
        ]
    record = {"facts": facts}
    # the mean round, not the median: the shared host switches between a
    # fast and a slow speed every few seconds, and a median of rounds jumps
    # with whichever level held more of the run, while the mean moves with
    # the share of time at each (bench/README.md, "Run-to-run spread")
    wall_s = statistics.fmean(w for _, w, _, _ in untraced)
    if traced:
        stats = [spans.RoundStats(tracer, lo, hi) for _, _, _, (lo, hi) in traced]
        counts = spans.exact_counts(stats[0])
        if len(stats) > 1:
            checks["counts repeat between rounds"] = [
                f"round {i}" for i, s in enumerate(stats) if spans.exact_counts(s) != counts
            ]
        checks["traced boundaries are busy"] = [
            path for path in workload.active if any(s.boundary_calls[path] == 0 for s in stats)
        ]
        record["counts"] = counts
        overhead = statistics.fmean(w for _, w, _, _ in traced) / wall_s
    identity = ("workload", "seed", "settings", "source_sha256", "bench_sha256")
    key = json.dumps([info[name] for name in identity], sort_keys=True)
    checks["exact results repeat between runs"] = self_check(key, record)
    for name, problems in checks.items():
        attempted += 1
        if problems:
            failed += 1
            errors.append(f"self-check failed, {name}: {'; '.join(problems)}")

    if traced:
        info["rounds"] = {"untraced": len(untraced), "traced": len(traced)}
        tracer.dump(OUT / f"trace-{workload.name}-seed{args.seed}.json.gz", info)
        values = spans.per_layer_metrics(stats, facts, overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)
    summary = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    summary["fail_ratio"] = (failed / attempted, "ratio")
    summary["rounds"] = (len(untraced), "count")
    if "replications" in facts:
        summary["replications_per_s"] = (facts["replications"] / wall_s, "1/s")
    for label in ("q37_50", "q1_2"):
        if f"distance_l1.{label}" in facts:
            summary[f"distance_l1.{label}"] = (facts[f"distance_l1.{label}"], "l1")
    for name, (value, unit) in summary.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
