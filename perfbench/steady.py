"""How steady is the benchmark?  Interleaved sets of every workload.

    python3 perfbench/steady.py --sets 2 --runs 5 [--traced] [--out steady.json]

Runs ``perfbench/run.py`` serially: for each set, for each run index,
every workload of ``BENCHMARK.json`` once, each run with a seed of its
own and the benchmark's own run length (``run_seconds``).  Prints, per
workload and end-to-end metric, each set's median and quartiles, the
spread (quartile distance over the median) and the change of the
median from the first set to each later one in the metric's worse
direction, then the same over all runs pooled.  Bounds in
``BENCHMARK.json`` are set from this output.  ``--traced`` adds one
traced run per workload and set and reports the tracing overhead: the
traced timed part of a round against the untraced median round.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload, seed, seconds, trace) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall_s = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n"
                         f"{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])["record"]
    result["wall_s"] = wall_s
    return result


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    traced = {w: [] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            for workload in workloads:
                seed = args.seed0 + s * args.runs + i
                result = run_once(workload, seed, seconds, 0)
                results[workload][s].append(result)
                metrics = {k: round(v["value"], 4)
                           for k, v in result["metrics"].items()}
                record = result["record"]
                print(f"set {s} seed {seed} {workload}: "
                      f"correct={result['correct']} {metrics} rounds "
                      f"{[round(r['seconds'], 2) for r in record['rounds']]}"
                      f" probe {record['host.probe_ms']}"
                      f" wall {result['wall_s']:.1f}", flush=True)
        if args.traced:
            for workload in workloads:
                traced[workload].append(run_once(
                    workload, args.seed0 + 9999 + s, seconds, 1))

    report = {}
    print()
    for workload in workloads:
        sets = results[workload]
        rows = {}
        for metric in spec["end_to_end"]:
            name, worse = metric["name"], metric["better"] == "lower"
            per_set = [summary([r["metrics"][name]["value"] for r in runs])
                       for runs in sets]
            pooled = summary([r["metrics"][name]["value"]
                              for runs in sets for r in runs])
            shifts = [
                (later["median"] - per_set[0]["median"]) / per_set[0]["median"]
                * (1 if worse else -1)
                for later in per_set[1:]
            ]
            rows[name] = {"sets": per_set, "pooled": pooled,
                          "worse_shift": shifts, "bound": metric["bound"]}
            print(f"{workload:12s} {name:22s} pooled median "
                  f"{pooled['median']:.4g} spread {pooled['spread']:.3f} | "
                  + " | ".join(f"set{k} {p['median']:.4g} "
                               f"[{p['q1']:.4g}, {p['q3']:.4g}] "
                               f"spread {p['spread']:.3f}"
                               for k, p in enumerate(per_set))
                  + "".join(f" | worse shift {x:+.3f}" for x in shifts)
                  + f" | bound {metric['bound']}")
        failed_share = [sum(r["failed"] for r in runs)
                        / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        wall = [r["wall_s"] for runs in sets for r in runs]
        print(f"{workload:12s} failed share per set {failed_share}, "
              f"all correct: {correct}, wall per run "
              f"{statistics.median(wall):.1f} s (max {max(wall):.1f})")
        report[workload] = {"metrics": rows, "failed_share": failed_share,
                            "correct": correct, "wall_s": wall}
        if traced[workload]:
            untraced = statistics.median(
                round_["seconds"] for runs in sets for r in runs
                for round_ in r["record"]["rounds"])
            timed = [r["metrics"]["trace.run_s"]["value"]
                     for r in traced[workload]]
            overhead = statistics.median(timed) / untraced - 1
            print(f"{workload:12s} traced timed part {timed} vs untraced "
                  f"round {untraced:.4g}: overhead {overhead:+.3f}")
            report[workload]["traced"] = [r["metrics"] for r in traced[workload]]
            report[workload]["trace_overhead"] = overhead
    if args.out:
        args.out.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
