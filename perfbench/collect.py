"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--trace-seed N] [--commit ID] [--out FILE]

For every workload, runs perfbench/run.py for BENCHMARK.json's run_seconds
once per seed with tracing off and, with --trace-seed, once more with
tracing on.  Prints, per end-to-end metric, the median, the quartiles from statistics.quantiles(values, n=4)
and their distance as a share of the median.  --out writes all of it, with
every run's details, as one JSON file: a point of the performance trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, machine_context  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return {"elapsed_s": elapsed, "detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarise(runs: list[dict]) -> dict:
    names = runs[0]["result"]["metrics"]
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values,
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--commit", default=None, help="commit measured, recorded in --out")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {
        "commit": args.commit,
        "context": machine_context(),
        "seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        entry = {"end_to_end": summarise(runs), "runs": runs}
        for r in runs:
            if not r["result"]["correct"]:
                print(f"{workload} seed {r['detail']['seed']}: INCORRECT {r['detail']['failures']}")
        for name, s in entry["end_to_end"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(
                f"{workload:13s} {name:13s} median {s['median']:.4f} {s['unit']:5s} "
                f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {spread} (bound {bounds.get(name)})",
                flush=True,
            )
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, seconds, 1)
            entry["per_layer"] = {
                "seed": args.trace_seed,
                "correct": traced["result"]["correct"],
                "metrics": traced["result"]["metrics"],
                "not_reached": traced["detail"]["not_reached"],
                "missing": traced["detail"]["missing"],
            }
            print(f"{workload:13s} traced run correct={traced['result']['correct']}", flush=True)
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
