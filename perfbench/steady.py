"""Steadiness procedure for the benchmark.

    python3 perfbench/steady.py run --seeds 1..10 --label set1
    python3 perfbench/steady.py compare set1 set2

`run` runs perfbench/run.py once per seed and workload of BENCHMARK.json,
one run at a time, with the run length from BENCHMARK.json and tracing
off.  For each end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to a
third of the metric's bound, and the share of failed operations.  Results go to
perfbench/out/steady-<label>.json.

`compare` checks two such sets: for every workload and metric, the second
median may be worse than the first by at most the bound, and the failed
shares must be equal.  It exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list, spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {
            "values": values,
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "bound": metric["bound"],
        }
    return out


def command_run(args) -> int:
    spec = load_spec()
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in seeds_of(args.seeds):
            results.append(one_run(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: {json.dumps(results[-1])}", flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        report[workload] = {
            "seeds": seeds_of(args.seeds),
            "correct": all(r["correct"] for r in results),
            "failed_shares": [r["failed"] / r["attempted"] for r in results],
            "attempted": attempted,
            "failed": failed,
            "metrics": summarize(results, spec),
        }
    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{args.label}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(table(report))
    return 0


def table(report: dict) -> str:
    lines = [
        "| workload | metric | median | q1 | q3 | spread | bound/3 |",
        "|---|---|---|---|---|---|---|",
    ]
    for workload, entry in report.items():
        for name, m in entry["metrics"].items():
            flag = "" if name == "setup_s" or m["spread"] <= m["bound"] / 3 else " (!)"
            lines.append(
                f"| {workload} | {name} | {m['median']:.6g} | {m['q1']:.6g} | "
                f"{m['q3']:.6g} | {m['spread']:.4f}{flag} | {m['bound'] / 3:.4f} |"
            )
        lines.append(
            f"| {workload} | failed/attempted | {entry['failed']}/{entry['attempted']} "
            f"| | | | |"
        )
    return "\n".join(lines)


def command_compare(args) -> int:
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    first = json.loads((OUT / f"steady-{args.first}.json").read_text())
    second = json.loads((OUT / f"steady-{args.second}.json").read_text())
    ok = True
    lines = ["| workload | metric | first median | second median | worse by | bound |",
             "|---|---|---|---|---|---|"]
    for workload, entry in first.items():
        other = second[workload]
        if set(entry["failed_shares"]) != set(other["failed_shares"]):
            ok = False
            lines.append(f"| {workload} | failed share differs | | | | |")
        for name, m in entry["metrics"].items():
            a, b = m["median"], other["metrics"][name]["median"]
            worse = (b - a) / a if better[name] == "lower" else (a - b) / a
            flag = "" if worse <= m["bound"] else " (!)"
            ok = ok and not flag
            lines.append(f"| {workload} | {name} | {a:.6g} | {b:.6g} | {worse:+.4f}{flag} | {m['bound']} |")
    print("\n".join(lines))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--seeds", required=True, help="first..last, inclusive")
    run.add_argument("--label", required=True)
    run.set_defaults(handler=command_run)
    compare = sub.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    compare.set_defaults(handler=command_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
