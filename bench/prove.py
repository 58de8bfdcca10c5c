"""Run sets of benchmark runs round-robin over the workloads, and summarise.

    python3 bench/prove.py --out bench/baseline.json

For each of SETS sets, seeds 1..RUNS are run round-robin over the workloads
(seed 1 of every workload, then seed 2, ...), each run a separate ``run.py``
process with ``--trace 0`` and the ``run_seconds`` of BENCHMARK.json.  Then
one ``--trace 1`` run per workload (seed 1) gives the per-layer numbers.  The summary holds, per workload and metric, the
median, quartiles and spread (quartile distance over median) of every set,
the shift of each later set's median from the first, the tracing overhead
(traced ``wall_ref`` minus the untraced median of the same seed), and whether every
(workload, seed) wrote byte-identical outputs in every set and in the
traced run.
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

import run  # noqa: E402

RUNS = 10  # seeds per set
SETS = 2


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=HERE.parent, timeout=180)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    values = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] == "workload":
            values["outputs_sha256"] = parts[parts.index("outputs_sha256") + 1]
            values["inputs_sha256"] = " ".join(parts[parts.index("inputs_sha256") + 1:
                                                     parts.index("outputs_sha256")])
        elif parts[0] == "passes":
            values["ref_loop_s"] = [float(x) for x in parts[parts.index("ref_loop_s") + 1:parts.index("wall_ref")]]
        elif len(parts) == 3 and parts[0] not in ("setup_s", "machine"):
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return {"result": result, "values": values, "elapsed_s": elapsed}


def summarise(samples: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples),
            "spread": (q3 - q1) / median if median else 0.0}


def tracing_summary(layer: dict, untraced_ref: list[float]) -> dict:
    """Tracing overhead (traced ``wall_ref`` minus the median untraced
    ``wall_ref`` of the same seed) and self time summed per module."""
    by_module: dict[str, float] = {}
    for name, value in layer.items():
        if name.endswith(".s") and "." in name[:-2]:
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + value
    ref = statistics.median(untraced_ref)
    return {
        "tracing_overhead_ref": layer["traced_wall_ref"] - ref,
        "tracing_overhead_share": (layer["traced_wall_ref"] - ref) / ref,
        "self_s_by_module": dict(sorted(by_module.items(), key=lambda kv: -kv[1])),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    sets = []
    for k in range(SETS):
        runs: dict[str, list[dict]] = {w: [] for w in run.WORKLOADS}
        for seed in range(1, RUNS + 1):
            for w in run.WORKLOADS:
                r = one_run(w, seed, seconds, 0)
                runs[w].append(r)
                print(f"set {k} {w} seed {seed} {r['elapsed_s']:.1f}s "
                      f"correct={r['result']['correct']} "
                      + " ".join(f"{n}={v['value']:.4f}"
                                 for n, v in r["result"]["metrics"].items()), flush=True)
        sets.append(runs)
    traced = {}
    for w in run.WORKLOADS:
        traced[w] = one_run(w, 1, seconds, 1)
        print(f"traced {w} {traced[w]['elapsed_s']:.1f}s "
              f"correct={traced[w]['result']['correct']}", flush=True)

    summary = {"machine": run.machine_info(), "seconds": seconds, "runs": RUNS,
               "sets": SETS, "workloads": {}}
    ok = True
    for w in run.WORKLOADS:
        entry = {"why": run.WORKLOADS[w].why, "end_to_end": {}, "also_reported": {}}
        for name in bench["end_to_end"]:
            name = name["name"]
            per_set = [summarise([r["result"]["metrics"][name]["value"] for r in s[w]])
                       for s in sets]
            shifts = [(p["median"] - per_set[0]["median"]) / per_set[0]["median"]
                      for p in per_set[1:]]
            within = all(p["spread"] <= bounds[name] for p in per_set) \
                and all(abs(shift) <= bounds[name] for shift in shifts)
            ok &= within
            entry["end_to_end"][name] = {
                "bound": bounds[name], "sets": per_set, "median_shift": shifts,
                "within_bounds": within,
                "runs": [[r["result"]["metrics"][name]["value"] for r in s[w]] for s in sets]}
        for name in ("wall_s", "ingest_s", "pairs_s", "dist_s", "handover_s", "simulate_s",
                     *run.QUALITY, "requested_pairs", "accepted_pairs", "unsound_pairs"):
            samples = [r["values"][name] for s in sets for r in s[w] if name in r["values"]]
            if samples and any(samples):
                entry["also_reported"][name] = summarise(samples)
        entry["ref_loop_s"] = summarise(
            [c for s in sets for r in s[w] for c in r["values"]["ref_loop_s"]])
        t = traced[w]
        layer = {n: v["value"] for n, v in t["result"]["metrics"].items()}
        entry["traced_seed_1"] = {"correct": t["result"]["correct"], **tracing_summary(
            layer, [s[w][0]["result"]["metrics"]["wall_ref"]["value"] for s in sets]),
            "per_layer": layer}
        digests = {}
        for s in sets:
            for seed, r in enumerate(s[w], start=1):
                digests.setdefault(seed, set()).add(r["values"]["outputs_sha256"])
        digests[1].add(t["values"]["outputs_sha256"])
        entry["outputs_identical_across_repeats"] = all(len(d) == 1 for d in digests.values())
        entry["inputs_sha256"] = sorted({r["values"]["inputs_sha256"] for r in sets[0][w]})[:3]
        entry["all_correct"] = all(r["result"]["correct"] for s in sets for r in s[w])
        ok &= entry["outputs_identical_across_repeats"] and entry["all_correct"]
        entry["run_elapsed_s"] = summarise([r["elapsed_s"] for s in sets for r in s[w]])
        summary["workloads"][w] = entry
    summary["accepted"] = ok
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    for w, entry in summary["workloads"].items():
        for name, e in entry["end_to_end"].items():
            print(w, name, "bound", e["bound"], "spreads",
                  [round(p["spread"], 3) for p in e["sets"]], "shifts",
                  [round(x, 3) for x in e["median_shift"]], "ok" if e["within_bounds"] else "OUT")
    print("accepted" if ok else "NOT accepted")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
