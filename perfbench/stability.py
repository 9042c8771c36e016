"""Stability check: run every workload repeatedly, one seed per run.

    python3 perfbench/stability.py --runs 10 [--first-seed 11]

Every run lasts ``run_seconds`` from BENCHMARK.json.  For each workload and
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median and
the worst deviation from the median, each against the metric's bound from
BENCHMARK.json.  The benchmark is steady when every spread is within a
third of its bound.  The failed share of every run is
printed too; it must be the same for every run of a workload.  Results go
to .perfbench_out/stability-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            print(f"{workload} seed {seed}: correct {res['correct']}, "
                  f"failed {res['failed']}/{res['attempted']}", flush=True)
        out = Path.cwd() / ".perfbench_out" / f"stability-{workload}.json"
        out.write_text(json.dumps(runs, indent=1))
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, failed shares {sorted(shares)}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'worst':>7s} {'bound':>6s}")
        for name, bound in bounds.items():
            xs = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            worst = max(abs(x - med) for x in xs) / med
            flag = "" if spread <= bound / 3 else "  <- above bound/3"
            steady &= bool(not flag) and all(r["correct"] for r in runs) and len(shares) == 1
            print(f"  {name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {worst:7.3f} {bound:6.2f}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
