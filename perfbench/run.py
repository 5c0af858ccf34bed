"""Benchmark of the autfplus batch commands: time to an unchanged certificate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--profile default|smoke|full]

Every timed run is a fresh child process that calls ``autfplus.cli.main``,
so the package's module-level caches start empty, as they do for a user.
Runs form a closed loop: one client, one run at a time, ``--threads 1``.
A run counts only if its exit code and the sha256 of its report body equal
the ones recorded in ``expected.json``; any other outcome, a crash or a
timeout is a failed run.  ``--seed`` only permutes the order in which the
set-up probes and the command runs are interleaved: the certificate is a
deterministic function of the command, so the inputs are fixed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json.  Their times are normalised by runs
of ``reference.py`` that bracket every command run, so that the shared
host's drift cancels.  With ``--trace 1`` it holds the per-layer metrics,
taken from traced runs of ``traced.py`` alternated with untraced ones.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CLI = [
    sys.executable,
    "-c",
    "import sys; from autfplus.cli import main; sys.exit(main(sys.argv[1:]))",
]
SETUP_STUB = (
    "import sys; n = int(sys.argv[1]); import autfplus.cli; "
    "from autfplus.presentation import gen_symbols, reduced_relators, relator_index; "
    "reduced_relators(n); relator_index(n); gen_symbols(n)"
)

# The host reference, run before and after every timed command: the times of
# the end-to-end metrics are given in reference seconds (see end_to_end()).
REFERENCE = [sys.executable, str(HERE / "reference.py")]
REFERENCE_OUT = b"18625591\n"  # what reference.py prints; anything else is a failed run
REFERENCE_S = 1.3  # one reference run on the measuring host in a quiet phase; only a scale

PROBES_PER_CYCLE = 3  # set-up probes between two reference runs, with one command run
MIN_RUNS = 2  # untraced command runs per run at least; more while --seconds allows
MIN_TRACED = 2  # traced runs per run at least, so that counts can be compared
# Per-layer metrics in these units are counts: two runs of the same code
# must agree on them exactly, or the run is not correct.
EXACT_UNITS = {"count", "bytes", "bits", "ratio"}


@dataclass(frozen=True)
class Profile:
    ranks: dict[str, int]  # CLI command -> free group rank
    timeout_s: float  # one child process is killed after this long


PROFILES = {
    # what BENCHMARK.json runs: the largest ranks at which a 60 s run holds
    # four or more command runs
    "default": Profile({"certify-h2": 4, "verify": 4, "homology": 6}, 120.0),
    # the same workloads one rank down, for the benchmark's own tests
    "smoke": Profile({"certify-h2": 3, "verify": 3, "homology": 5}, 60.0),
    # the headline sizes (minutes per run), for manual before/after checks
    "full": Profile({"certify-h2": 6, "verify": 5, "homology": 7}, 900.0),
}


@dataclass(frozen=True)
class Workload:
    command: str
    cache: str | None  # None; "cold": a fresh empty dir per run; "warm": filled once first


WORKLOADS = {
    "certify-h2": Workload("certify-h2", "cold"),
    "verify": Workload("verify", None),
    "homology-cold": Workload("homology", "cold"),
    "homology-warm": Workload("homology", "warm"),
}


def body_hash(body: dict) -> str:
    """The CLI's report_hash: sha256 of the canonical body serialization."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def gate(exp: dict, code: int | None, body: dict | None) -> str | None:
    """Why a run's outcome differs from the recorded one, or None if it does not."""
    if code != exp["exit"]:
        return f"exit code {code}, expected {exp['exit']}"
    if body is None:
        return "no report body"
    digest = body_hash(body)
    if digest != exp["report_hash"]:
        return f"report_hash {digest[:16]}..., expected {exp['report_hash'][:16]}..."
    for coeff, bound in exp.get("bound", {}).items():
        res = body["results"][coeff]
        got = (res["harvest"]["bound"], res["homology"]["image_rank"])
        want = (bound, exp["image_rank"][coeff])
        if got != want:
            return f"{coeff}: bound, image rank {got}, expected {want}"
    return None


@dataclass
class Child:
    code: int | None  # None when killed at the timeout
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv: list[str], log: Path, timeout_s: float) -> Child:
    """Run one child to completion; time it and read its own rusage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    killed = threading.Event()
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT
        )

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        None if killed.is_set() else proc.returncode,
        wall,
        ru.ru_utime + ru.ru_stime,
        ru.ru_maxrss / 1024,
    )


class Bench:
    """One workload at one rank: runs children and gates their outcomes."""

    def __init__(self, workload: Workload, profile: Profile, exp: dict, work: Path):
        self.wl = workload
        self.n = profile.ranks[workload.command]
        self.timeout_s = profile.timeout_s
        self.exp = exp
        self.work = work
        self.k = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.mismatches: list[str] = []  # exact counts that differ between runs
        self.warm_dir: Path | None = None
        self.refs: list[Child] = []
        self.setups: list[Child] = []
        self.plains: list[Child] = []
        self.traces: list[tuple[Child, dict]] = []

    def _dir(self, kind: str) -> Path:
        self.k += 1
        d = self.work / f"{self.k:03d}-{kind}"
        d.mkdir(parents=True)
        return d

    def _cache_dir(self, d: Path) -> str | None:
        if self.wl.cache == "warm":
            return str(self.warm_dir)
        if self.wl.cache == "cold":
            return str(d / "cache")
        return None

    def _spawn(self, argv: list[str], d: Path) -> Child:
        self.attempted += 1
        child = spawn(argv, d / "log.txt", self.timeout_s)
        if child.code is None:
            self._fail(d, f"killed after {self.timeout_s:.0f} s")
        return child

    def _fail(self, d: Path, why: str) -> None:
        self.failures.append(f"{d.name}: {why}")
        print(f"perfbench: FAILED {d.name}: {why} (see {d / 'log.txt'})", file=sys.stderr)

    def _cli(self, d: Path, cache_dir: str | None, runner: list[str]) -> Child | None:
        """Run the workload's CLI command under `runner` and gate its report."""
        argv = [self.wl.command, "--n", str(self.n), "--threads", "1"]
        if self.wl.command != "verify":
            argv += ["--coeff", "both"]
        if cache_dir:
            argv += ["--cache-dir", cache_dir]
        report = d / "report.json"
        child = self._spawn([*runner, *argv, "--out", str(report)], d)
        if child.code is None:
            return None
        try:
            doc = json.loads(report.read_text())
            body = doc["body"]
            if doc["meta"]["report_hash"] != body_hash(body):
                self._fail(d, "meta.report_hash does not hash the body")
                return None
        except (OSError, ValueError, KeyError):
            body = None
        why = gate(self.exp, child.code, body)
        if why:
            self._fail(d, why)
            return None
        return child

    def prepare(self) -> None:
        """Not measured: fill the warm cache, and compile the bytecode once."""
        if self.wl.cache == "warm":
            d = self._dir("fill")
            self.warm_dir = d / "cache"
            self._cli(d, str(self.warm_dir), CLI)
        d = self._dir("warmup")
        child = self._spawn([sys.executable, "-c", SETUP_STUB, str(self.n)], d)
        if child.code not in (0, None):
            self._fail(d, f"set-up exit code {child.code}")

    def reference(self) -> None:
        d = self._dir("ref")
        child = self._spawn(REFERENCE, d)
        if child.code is None:
            return
        if child.code != 0 or (d / "log.txt").read_bytes() != REFERENCE_OUT:
            self._fail(d, f"reference exited {child.code} or printed other than {REFERENCE_OUT!r}")
        else:
            self.refs.append(child)

    def setup(self) -> None:
        d = self._dir("setup")
        child = self._spawn([sys.executable, "-c", SETUP_STUB, str(self.n)], d)
        if child.code == 0:
            self.setups.append(child)
        elif child.code is not None:
            self._fail(d, f"set-up exit code {child.code}")

    def plain(self) -> None:
        d = self._dir("run")
        child = self._cli(d, self._cache_dir(d), CLI)
        if child:
            self.plains.append(child)

    def traced(self) -> None:
        d = self._dir("traced")
        out = d / "trace.json"
        runner = [sys.executable, str(HERE / "traced.py"), str(out)]
        child = self._cli(d, self._cache_dir(d), runner)
        if child:
            self.traces.append((child, json.loads(out.read_text())["metrics"]))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else float("nan")


def run_tasks(bench: Bench, tasks: list[str]) -> None:
    for task in tasks:
        if bench.failures:
            return
        getattr(bench, task)()


def measure_cycles(bench: Bench, rng: random.Random, seconds: float) -> None:
    """Prepare, then run cycles of set-up probes and one command run, in an
    order drawn from rng, each cycle closed by a reference run (and the
    first opened by one).  A new cycle starts only while the longest cycle
    so far still fits in `seconds`, counted from the start.  Stops at the
    first failed run, so a hanging program costs one timeout."""
    t0 = time.perf_counter()
    bench.prepare()
    run_tasks(bench, ["reference"])
    longest = 0.0
    while not bench.failures:
        c0 = time.perf_counter()
        tasks = ["setup"] * PROBES_PER_CYCLE + ["plain"]
        rng.shuffle(tasks)
        run_tasks(bench, [*tasks, "reference"])
        longest = max(longest, time.perf_counter() - c0)
        if len(bench.plains) >= MIN_RUNS and time.perf_counter() - t0 + longest > seconds:
            break


def measure_traced(bench: Bench, rng: random.Random, seconds: float) -> None:
    """Prepare, run one untraced and MIN_TRACED traced command runs in an
    order drawn from rng, then more pairs while the median cost of a pair
    still fits in `seconds`, counted from the start."""
    t0 = time.perf_counter()
    bench.prepare()
    tasks = ["plain"] + ["traced"] * MIN_TRACED
    rng.shuffle(tasks)
    run_tasks(bench, tasks)
    pair = rng.sample(["plain", "traced"], 2)
    while not bench.failures:
        plain, traced = bench.plains, [c for c, _ in bench.traces]
        cost = median([c.wall_s for c in plain]) + median([c.wall_s for c in traced])
        if not time.perf_counter() - t0 + cost <= seconds:
            break
        run_tasks(bench, pair)


def end_to_end(bench: Bench, spec: list[dict]) -> dict:
    """The end-to-end metrics; times in reference seconds.

    A time is divided by the mean of the same time of the run's reference
    runs, which bracket every command run, and multiplied by REFERENCE_S.
    A host that is 30% slower for a minute slows the reference too, so the
    value stays about where it was, while a program that does 30% more
    work moves it by 30%.  wall_s and cpu_s use the mean command run of
    the run; setup_s uses the median probe, which a stray slow probe does
    not move.
    """
    ref_wall = REFERENCE_S / mean([c.wall_s for c in bench.refs])
    ref_cpu = REFERENCE_S / mean([c.cpu_s for c in bench.refs])
    got = {
        "wall_s": mean([c.wall_s for c in bench.plains]) * ref_wall,
        "cpu_s": mean([c.cpu_s for c in bench.plains]) * ref_cpu,
        "peak_rss_mb": median([c.rss_mb for c in bench.plains]),
        "setup_s": median([c.wall_s for c in bench.setups]) * ref_wall,
    }
    return {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in spec}


def per_layer(bench: Bench, spec: list[dict]) -> dict:
    runs = [m for _, m in bench.traces]
    overhead = median([c.wall_s for c, _ in bench.traces]) - median(
        [c.wall_s for c in bench.plains]
    )
    out = {}
    for m in spec:
        name = m["name"]
        if name == "trace.overhead_s":
            value = overhead
        elif m["unit"] in EXACT_UNITS:
            values = [r[name] for r in runs]
            if len(set(values)) > 1:
                bench.mismatches.append(name)
                print(f"perfbench: {name} differs between runs: {values}", file=sys.stderr)
            value = values[0] if values else float("nan")
        else:
            value = median([r[name] for r in runs])
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv: list[str] | None = None, expected: dict | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--profile", default="default", choices=sorted(PROFILES))
    args = ap.parse_args(argv)

    if not (SRC / "autfplus" / "cli.py").is_file():
        print(f"perfbench: no autfplus sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if expected is None:
        expected = json.loads((HERE / "expected.json").read_text())
    workload = WORKLOADS[args.workload]
    profile = PROFILES[args.profile]
    exp = expected[workload.command][str(profile.ranks[workload.command])]

    work = WORK / f"{args.profile}-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(workload, profile, exp, work)
    rng = random.Random(args.seed)
    if args.trace:
        measure_traced(bench, rng, args.seconds)
        metrics = per_layer(bench, spec["per_layer"])
    else:
        measure_cycles(bench, rng, args.seconds)
        metrics = end_to_end(bench, spec["end_to_end"])
        raw = {k: mean([c.wall_s for c in getattr(bench, k)]) for k in ("plains", "setups", "refs")}
        print(f"perfbench: mean wall before normalising: {raw}", file=sys.stderr)
    correct = not bench.failures and not bench.mismatches
    for m in metrics.values():
        if m["value"] != m["value"]:  # NaN: nothing was measured, so no value
            m["value"] = None
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }
    print(json.dumps(result, allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
