#!/usr/bin/env python3
"""Run sets of untraced benchmark runs and record how steady they are.

Each set runs every workload of ``BENCHMARK.json`` once per seed, for its
``run_seconds``, seed-major, so each workload's runs are spread over the
whole set and share the host's slow and fast phases.  For every workload
and end-to-end metric the record keeps the ten values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median.  With two or more sets it also
compares each later set's median with the first one's in the metric's worse
direction, against the bound in ``BENCHMARK.json``.

From the root of a source checkout:

    python3 bench/steadiness.py --sets 2 --seeds 1-10 \
        --out bench/results/steadiness.json

``--compare-only`` re-renders the summary of an existing record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # an untraced run prints its raw wall-clock figures as the JSON line before
    result["metrics"].update(json.loads(lines[-2])["raw"])
    return result


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    delta = (second - first) / first
    return -delta if better == "higher" else delta


#: printed but not gated: raw wall-clock figures, compared with no bound
RAW_BETTER = {"ops_per_s": "higher", "op_ms_p50": "lower", "op_ms_p90": "lower",
              "setup_wall_s": "lower"}


def render(record: dict, bench: dict) -> str:
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    e2e.update({name: {"better": better, "bound": None}
                for name, better in RAW_BETTER.items()})
    sets = record["sets"]
    lines = ["| workload | metric | bound | " + " | ".join(
        f"set {i + 1} median [q1, q3] (spread)" for i in range(len(sets)))
        + (" | set 2 vs set 1 (worse by) |" if len(sets) > 1 else " |"),
        "|" + " --- |" * (3 + len(sets) + (len(sets) > 1))]
    for workload in record["workloads"]:
        for name, spec in e2e.items():
            cells = []
            for s in sets:
                st = s["summary"][workload][name]
                cells.append(f"{st['median']:.4g} [{st['q1']:.4g}, {st['q3']:.4g}] "
                             f"({st['spread']:.1%})")
            bound = "raw, not gated" if spec["bound"] is None else f"{spec['bound']:.0%}"
            row = f"| {workload} | {name} | {bound} | " + " | ".join(cells)
            if len(sets) > 1:
                shift = worse_by(sets[0]["summary"][workload][name]["median"],
                                 sets[1]["summary"][workload][name]["median"],
                                 spec["better"])
                row += f" | {shift:+.1%}"
            lines.append(row + " |")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare-only", action="store_true")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not args.compare_only:
        workloads = [w["name"] for w in bench["workloads"]]
        seconds = bench["run_seconds"]
        seeds = parse_seeds(args.seeds)
        record = {"workloads": workloads, "seeds": seeds, "seconds": seconds, "sets": []}
        for set_no in range(args.sets):
            runs = {w: [] for w in workloads}
            for seed in seeds:
                for workload in workloads:
                    res = run_once(workload, seed, seconds)
                    res["seed"] = seed
                    runs[workload].append(res)
                    print(f"set {set_no + 1} {workload} seed {seed}: " + " ".join(
                        f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                        flush=True)
            summary = {w: {name: summarize([r["metrics"][name]["value"] for r in rs])
                           for name in rs[0]["metrics"]} for w, rs in runs.items()}
            record["sets"].append({"runs": runs, "summary": summary})
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    record = json.loads(args.out.read_text())
    sys.stdout.write(render(record, bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
