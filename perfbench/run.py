"""The symchar benchmark: the `symchar` CLI driven end to end, one request per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
Each request is a fresh interpreter running perfbench/child.py, which
imports `main` from symchar.cli and passes it the request's arguments.  One
request runs at a time (a closed loop with one client).  Requests get a
private cache directory under .perfbench_work/ and that directory's empty
`cwd/` as working directory, and SYMCHAR_CACHE is unset, so no other cache
is ever read or written.

A pass is one round of the workload's requests.  Passes repeat until
--seconds have gone by; the first pass always completes, later ones stop at
the deadline after the request that is running.  Times are taken per
request: the mean of the faster half of its samples (see fast_half).  With
--trace 1, untraced and traced passes alternate and run to completion; the
traced children wrap symchar's public functions in span recorders
(perfbench/tracer.py) and the per-layer metrics are medians over the traced
passes.

Every request's output is checked (perfbench/checks.py).  The last line of
standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and the line before it holds the details: seed, machine, passes, failures,
and the per-layer metrics that were not reached or are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK_ROOT = ROOT / ".perfbench_work"
REQUEST_TIMEOUT_S = 150
# Set-ups per run; setup_s is their fast_half.  A probe takes 0.1 s and its
# time is bimodal on a busy host, so it takes many; a build takes 5 s.
PROBE_REPEATS = 30
BUILD_REPEATS = 3


class SetupError(RuntimeError):
    """The workload could not be prepared; no result is printed."""


@dataclass
class Outcome:
    label: str
    wall_s: float
    rss_mib: float
    stdout_bytes: int
    problem: str | None
    trace: dict | None


class Runner:
    """Spawns requests one at a time and checks each one's output."""

    def __init__(self, work: Path, traced: bool) -> None:
        self.work = work
        self.cwd = work / "cwd"
        self.cwd.mkdir(parents=True)
        self.traced = traced
        self.env = {k: v for k, v in os.environ.items() if k != "SYMCHAR_CACHE"}
        self._count = 0
        self.deadline: float | None = None

    def past_deadline(self) -> bool:
        """True once the run's time is up; a pass then ends early."""
        return self.deadline is not None and time.perf_counter() >= self.deadline

    def fresh_dir(self, prefix: str) -> Path:
        self._count += 1
        path = self.work / f"{prefix}-{self._count}"
        path.mkdir()
        return path

    def request(self, label: str, argv: list[str], check) -> Outcome:
        self._count += 1
        rid = f"r{self._count}"
        out_path = self.work / f"{rid}.out"
        err_path = self.work / f"{rid}.err"
        trace_path = self.work / f"{rid}.trace.json"
        cmd = [
            sys.executable,
            str(CHILD),
            str(SRC),
            str(trace_path) if self.traced else "-",
            rid,
            *argv,
        ]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            problem = f"{label}: exit code {proc.returncode} {tail}"
        else:
            problem = check(stdout)
        if problem is None and any(self.cwd.iterdir()):
            problem = f"{label}: wrote into its working directory"
        trace = None
        if self.traced:
            if trace_path.exists():
                trace = json.loads(trace_path.read_text(encoding="utf-8"))
                trace_path.unlink()
            elif problem is None:
                problem = f"{label}: traced child wrote no spans"
        out_path.unlink()
        err_path.unlink()
        return Outcome(label, wall, usage.ru_maxrss / 1024, len(stdout), problem, trace)


def _cache_state(cache: Path) -> dict[str, tuple[int, int, int]]:
    return {
        p.name: (p.stat().st_size, p.stat().st_mtime_ns, p.stat().st_ino)
        for p in sorted(cache.iterdir())
    }


def _fmt(p: tuple[int, ...]) -> str:
    return ",".join(str(part) for part in p)


def _probe(runner: Runner) -> float:
    """Interpreter start, import of symchar.cli from src/, and argparse."""
    outcome = runner.request(
        "probe --help",
        ["--help"],
        lambda out: None if b"chartable" in out else "usage text lacks the subcommands",
    )
    if outcome.problem:
        raise SetupError(outcome.problem)
    return outcome.wall_s


# --- workloads ---------------------------------------------------------------


class ColdTable:
    """Full tables from an empty cache: the MN build, save and JSON output."""

    name = "cold-table"
    sizes = (18, 20)

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def setup(self, runner: Runner) -> list[float]:
        return [_probe(runner) for _ in range(PROBE_REPEATS)]

    def one_pass(self, runner: Runner) -> list[Outcome]:
        sizes = list(self.sizes)
        self.rng.shuffle(sizes)
        outcomes = []
        for n in sizes:
            if runner.past_deadline():
                break
            cache = runner.fresh_dir("cache")
            outcome = runner.request(
                f"chartable {n} --format json",
                ["--cache-dir", str(cache), "chartable", str(n), "--format", "json"],
                partial(checks.check_json_table, n),
            )
            if outcome.problem is None and not any(cache.iterdir()):
                outcome.problem = f"{outcome.label}: the cold build left the cache empty"
            shutil.rmtree(cache)
            outcomes.append(outcome)
        return outcomes

    def describe(self) -> dict:
        return {"requests": [f"chartable {n} --format json" for n in self.sizes]}


class WarmCache:
    """Reads of a filled n=20 cache: decode, the pair scan and rendering."""

    name = "warm-cache"
    n = 20

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.cache: Path | None = None

    def setup(self, runner: Runner) -> list[float]:
        walls = []
        for _ in range(BUILD_REPEATS):
            cache = runner.fresh_dir("cache")
            outcome = runner.request(
                f"setup chartable {self.n} --format json",
                ["--cache-dir", str(cache), "chartable", str(self.n), "--format", "json"],
                partial(checks.check_json_table, self.n),
            )
            if outcome.problem is None and not any(cache.iterdir()):
                outcome.problem = "setup build left the cache empty"
            if outcome.problem:
                raise SetupError(outcome.problem)
            walls.append(outcome.wall_s)
            if self.cache is None:
                self.cache = cache
            else:
                shutil.rmtree(cache)
        return walls

    def one_pass(self, runner: Runner) -> list[Outcome]:
        n = str(self.n)
        requests = [
            ("vanishing-pairs", ["vanishing-pairs", n, "--format", "json"], checks.check_pairs_json),
            ("chartable pretty", ["chartable", n], checks.check_pretty_table),
            ("chartable csv", ["chartable", n, "--format", "csv"], checks.check_csv_table),
        ]
        self.rng.shuffle(requests)
        outcomes = []
        for label, argv, check in requests:
            if runner.past_deadline():
                break
            before = _cache_state(self.cache)
            outcome = runner.request(
                f"{label} {n}", ["--cache-dir", str(self.cache), *argv], partial(check, self.n)
            )
            if outcome.problem is None and _cache_state(self.cache) != before:
                outcome.problem = f"{outcome.label}: a warm request changed the cache"
            outcomes.append(outcome)
        return outcomes

    def describe(self) -> dict:
        return {
            "setup": f"chartable {self.n} --format json into an empty cache, {BUILD_REPEATS} times",
            "requests": [
                f"vanishing-pairs {self.n} --format json",
                f"chartable {self.n}",
                f"chartable {self.n} --format csv",
            ],
        }


class VerifySweep:
    """Small tables: brute-force structure constants, formulas, process start."""

    name = "verify-sweep"
    limit = 9
    verify_range = (3, 9)
    eval_sizes = range(10, 15)
    evals_per_size = 2
    structure_sizes = (8, 8, 9, 9)

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.evals = []
        for n in self.eval_sizes:
            for _ in range(self.evals_per_size):
                lam = rng.choice(self._near_hooks(n))
                methods = ["mn", "formula"]
                if len(lam) == 2 or lam[1:] == (1,) * (len(lam) - 1):
                    methods.append("recursion")  # a two-row or hook shape
                pair = rng.sample(methods, 2)
                mu = rng.choice(checks.partitions(n))
                self.evals.append((lam, mu, pair))
        self.triples = [
            tuple(rng.choice(checks.partitions(n)) for _ in range(3)) for n in self.structure_sizes
        ]

    @staticmethod
    def _near_hooks(n: int) -> list[tuple[int, ...]]:
        tails = ((1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 1, 1), (1, 1, 1, 1))
        return [(n - sum(tail), *tail) for tail in tails]

    def setup(self, runner: Runner) -> list[float]:
        return [_probe(runner) for _ in range(PROBE_REPEATS)]

    def one_pass(self, runner: Runner) -> list[Outcome]:
        lo, hi = self.verify_range
        # (label, argv, check, index of the eval question or None)
        requests = [
            (
                f"verify {lo}..{hi}",
                ["verify", "--suite", "all", "--n-min", str(lo), "--n-max", str(hi)],
                partial(checks.check_verify, lo, hi),
                None,
            )
        ]
        answers: dict[int, list[int | None]] = defaultdict(list)
        for i, (lam, mu, methods) in enumerate(self.evals):

            def read(out: bytes, i=i) -> str | None:
                answers[i].append(checks.read_integer(out))
                return None if answers[i][-1] is not None else "eval printed no integer"

            for method in methods:
                requests.append(
                    (
                        f"eval {_fmt(lam)} at {_fmt(mu)} by {method}",
                        ["eval", "--lambda", _fmt(lam), "--mu", _fmt(mu), "--method", method],
                        read,
                        i,
                    )
                )
        for mu, nu, gamma in self.triples:
            requests.append(
                (
                    f"structure-constant {_fmt(mu)} {_fmt(nu)} {_fmt(gamma)} --verify",
                    ["structure-constant", "--mu", _fmt(mu), "--nu", _fmt(nu),
                     "--gamma", _fmt(gamma), "--verify"],
                    checks.check_structure_verify,
                    None,
                )
            )
        self.rng.shuffle(requests)
        outcomes = []
        for label, argv, check, _ in requests:
            if runner.past_deadline():
                break
            # a cache of its own, so no request reuses a table another one built
            cache = runner.fresh_dir("cache")
            options = ["--brute-force-limit", str(self.limit), "--cache-dir", str(cache)]
            outcomes.append(runner.request(label, options + argv, check))
            shutil.rmtree(cache)
        for (_, _, _, i), outcome in zip(requests, outcomes):
            # a pass cut at the deadline may hold one answer of a pair
            if i is not None and outcome.problem is None and len(set(answers[i])) != 1:
                outcome.problem = f"{outcome.label}: the two methods disagree {answers[i]}"
        return outcomes

    def describe(self) -> dict:
        lo, hi = self.verify_range
        return {
            "verify": f"--brute-force-limit {self.limit} verify --suite all --n-min {lo} --n-max {hi}",
            "evals": [[_fmt(lam), _fmt(mu), methods] for lam, mu, methods in self.evals],
            "structure_constants": [[_fmt(p) for p in triple] for triple in self.triples],
        }


WORKLOADS = {w.name: w for w in (ColdTable, WarmCache, VerifySweep)}


# --- per-layer metrics from spans -------------------------------------------

# (metric, span or counter names, field summed over them)
LAYER_SUMS = (
    ("cli.self_s", ("cli.main",), "self"),
    ("characters.build_s", ("characters.character_table",), "self"),
    ("characters.border_strip_calls", ("characters.border_strip_removals",), "calls"),
    ("characters.encode_s", ("characters.table_to_json",), "total"),
    ("characters.encode_bytes", ("characters.table_to_json",), "bytes"),
    ("characters.decode_s", ("characters.table_from_json",), "total"),
    ("characters.cache_read_s", ("characters.load_table",), "self"),
    ("characters.cache_write_s", ("characters.save_table",), "self"),
    ("characters.cache_bytes_read", ("characters.load_table",), "bytes"),
    ("characters.cache_bytes_written", ("characters.save_table",), "bytes"),
    ("characters.mn_char_s", ("characters.mn_char",), "total"),
    ("characters.mn_char_calls", ("characters.mn_char",), "calls"),
    ("vanishing.scan_s", ("vanishing.find_covering_pairs",), "total"),
    ("vanishing.scan_calls", ("vanishing.find_covering_pairs",), "calls"),
    ("class_algebra.class_enum_s", ("class_algebra.conjugacy_class",), "total"),
    ("class_algebra.bruteforce_s", ("class_algebra.structure_constant_bruteforce",), "self"),
    ("class_algebra.bruteforce_calls", ("class_algebra.structure_constant_bruteforce",), "calls"),
    ("class_algebra.structure_constant_s", ("class_algebra.structure_constant",), "total"),
    ("class_algebra.structure_constant_calls", ("class_algebra.structure_constant",), "calls"),
    ("formulas.near_hook_s", ("formulas.near_hook_value",), "total"),
    (
        "formulas.recursion_s",
        ("formulas.hook_char_recursive", "formulas.two_row_char_recursive"),
        "total",
    ),
    (
        "formulas.calls",
        (
            "formulas.near_hook_value",
            "formulas.hook_char_recursive",
            "formulas.two_row_char_recursive",
        ),
        "calls",
    ),
)
FIELDS = ("calls", "total", "self", "bytes")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _span_stats(trace: dict) -> dict[str, dict[str, float]]:
    """Per name: calls, total duration, self time, bytes."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end, _ in trace["spans"]:
        if parent is not None and end is not None:
            children[parent].append((start, end))
    stats: dict[str, dict[str, float]] = defaultdict(lambda: dict.fromkeys(FIELDS, 0))
    for span_id, _, name, start, end, nbytes in trace["spans"]:
        if end is None:
            continue
        entry = stats[name]
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - _covered(children[span_id])
        entry["bytes"] += nbytes or 0
    for name, calls in trace["counts"].items():
        stats[name]["calls"] += calls
    return stats


def layer_metrics(outcomes: list[Outcome]) -> tuple[dict[str, float], set[str], set[str]]:
    """One traced pass -> (metric values, metrics not reached, metrics missing)."""
    traced = [(o, _span_stats(o.trace)) for o in outcomes if o.trace is not None]
    traces = [o.trace for o, _ in traced]
    absent = {name for t in traces for name in t["missing"]}
    totals: dict[str, dict[str, float]] = defaultdict(lambda: dict.fromkeys(FIELDS, 0))
    for _, stats in traced:
        for name, entry in stats.items():
            for f in FIELDS:
                totals[name][f] += entry[f]
    values: dict[str, float] = {}
    unreached: set[str] = set()
    missing: set[str] = set()
    for metric, names, f in LAYER_SUMS:
        if absent.intersection(names):
            missing.add(metric)
            continue
        values[metric] = sum(totals[name][f] for name in names)
        if not any(totals[name]["calls"] for name in names):
            unreached.add(metric)

    if "cli.main" in absent:
        missing.add("cli.startup_s")
    else:
        values["cli.startup_s"] = sum(o.wall_s - stats["cli.main"]["total"] for o, stats in traced)
    values["cli.stdout_bytes"] = sum(o.stdout_bytes for o in outcomes)
    if "characters.mn_memo_size" in absent:
        missing.add("characters.mn_memo_entries")
    else:
        values["characters.mn_memo_entries"] = max(
            (t["probes"].get("characters.mn_memo_size", 0) for t in traces), default=0
        )
    if absent.intersection({"characters.load_table", "characters.character_table"}):
        missing.add("characters.cache_hit_ratio")
    else:
        builds = totals["characters.character_table"]["calls"]
        loads = totals["characters.load_table"]["calls"]
        values["characters.cache_hit_ratio"] = loads / builds if builds else 0.0
        if not builds:
            unreached.add("characters.cache_hit_ratio")
    return values, unreached, missing


# --- the run -----------------------------------------------------------------


def machine_context() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, outcomes: list[Outcome]) -> None:
        self.attempted += len(outcomes)
        self.failures.extend(o.problem for o in outcomes if o.problem)


def fast_half(samples: list[float]) -> float:
    """Mean of the faster half of the samples; below four, the fastest alone.

    Other tenants of a shared host only ever add time, in spells of seconds,
    so the slower samples measure them more than the program.  Taking the
    faster half drops those spells yet still averages over several samples.
    """
    ordered = sorted(samples)
    return statistics.fmean(ordered[: max(1, len(ordered) // 2)])


def _typical_pass(walls_by_request: dict[str, list[float]]) -> float:
    """Sum over a pass's requests of each request's fast_half across passes.

    Steadier than a figure per pass: a slow spell that hits one request in
    one pass and another request in the next is dropped from both.
    """
    return sum(fast_half(walls) for walls in walls_by_request.values())


def run(workload_name: str, seed: int, seconds: float, traced: bool, work: Path) -> tuple[dict, dict]:
    workload = WORKLOADS[workload_name](random.Random(seed))
    plain = Runner(work / "plain", traced=False)
    setup_samples = workload.setup(plain)
    tracing = Runner(work / "traced", traced=True) if traced else None

    tally = Tally()
    walls: dict[bool, list[float]] = {False: [], True: []}
    by_request: dict[bool, dict[str, list[float]]] = {False: defaultdict(list), True: defaultdict(list)}
    peaks: list[float] = []
    layers: list[dict[str, float]] = []
    unreached_sets: list[set[str]] = []
    missing: set[str] = set()
    pass_size = None  # requests in a whole pass: the first pass is always whole
    start = time.perf_counter()
    while True:
        # alternate plain and traced passes when tracing, to share the machine's drift
        use_trace = traced and len(walls[True]) < len(walls[False])
        outcomes = workload.one_pass(tracing if use_trace else plain)
        tally.add(outcomes)
        if pass_size is None:
            pass_size = len(outcomes)
            if not traced:
                plain.deadline = start + seconds
        whole = len(outcomes) == pass_size
        if whole:
            walls[use_trace].append(sum(o.wall_s for o in outcomes))
        seen: dict[str, int] = defaultdict(int)
        for o in outcomes:
            seen[o.label] += 1
            by_request[use_trace][f"{o.label} #{seen[o.label]}"].append(o.wall_s)
        if use_trace:
            values, unreached, absent = layer_metrics(outcomes)
            layers.append(values)
            unreached_sets.append(unreached)
            missing |= absent
        elif whole:
            peaks.append(max(o.rss_mib for o in outcomes))
        done = time.perf_counter() - start >= seconds
        if done and (not traced or walls[True]):
            break

    failed = len(tally.failures)
    run_problems = []
    metrics: dict[str, dict] = {}
    if traced:
        not_reached = set.intersection(*unreached_sets)
        for name in sorted({k for layer in layers for k in layer}):
            metrics[name] = statistics.median(layer[name] for layer in layers)
        metrics["trace_overhead_frac"] = (
            _typical_pass(by_request[True]) / _typical_pass(by_request[False]) - 1
        )
        ratio = metrics.get("characters.cache_hit_ratio")
        want = {"cold-table": 0.0, "warm-cache": 1.0}.get(workload_name)
        if want is not None and (ratio != want or "characters.cache_hit_ratio" in not_reached):
            run_problems.append(f"characters.cache_hit_ratio is {ratio}, expected {want}")
    else:
        not_reached = set()
        metrics["wall_s"] = _typical_pass(by_request[False])
        metrics["setup_s"] = fast_half(setup_samples)
        metrics["peak_rss_mib"] = statistics.median(peaks)
        metrics["ok_frac"] = (tally.attempted - failed) / tally.attempted

    detail = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "context": machine_context(),
        "inputs": workload.describe(),
        "setup_samples_s": setup_samples,
        "pass_wall_s": walls[False],
        "request_wall_s": by_request[False],
        "traced_pass_wall_s": walls[True],
        "failed_frac": failed / tally.attempted,
        "failures": (tally.failures + run_problems)[:20],
        "not_reached": sorted(not_reached),
        "missing": sorted(missing),
    }
    result = {
        "correct": not tally.failures and not run_problems,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description="symchar CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "symchar" / "cli.py").is_file():
        print(f"error: no symchar sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except SetupError as e:
        print(f"error: setup failed: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it, or it was never made

    for name in detail["missing"]:
        print(f"MISSING per-layer metric {name}: a wrapped function no longer exists", file=sys.stderr)
    undeclared = set(result["metrics"]) - set(units)
    if undeclared:
        print(f"error: metrics not declared in BENCHMARK.json: {sorted(undeclared)}", file=sys.stderr)
        return 4
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    for problem in detail["failures"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
