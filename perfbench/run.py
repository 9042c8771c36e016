"""ordlift benchmark: one workload per run.

    python3 perfbench/run.py --workload desk-grid --seed 1 --seconds 30 --trace 0

Run from the root of an ordlift checkout; ordlift is loaded from its
``src``.  With ``--trace 0`` it measures the end-to-end metrics for
``--seconds`` seconds in whole rounds; each round is

- a few fresh interpreters that time ``import ordlift`` (setup_s);
- one fresh worker that makes a cold pass and WARM_PASSES warm passes over
  the workload's library calls (cold/warm_ops_per_s, op_p50_us, peak_rss_mb);
- the workload's CLI session, one ``python3 -m ordlift`` subprocess at a
  time (cli_s).

With ``--trace 1`` it makes one traced run and reports the per-layer metrics
(see traced.py).  Every output is checked against the benchmark's own
references.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import reference as ref
import timing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR_NAME = ".perfbench_out"
WARM_PASSES = {"desk-grid": 1, "wide-moduli": 30, "steinhaus-search": 1}
SETUP_PER_ROUND = 3
LAUNCH_NOMINAL_S = 0.05
TIMEOUT_S = 150

_IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, {bench!r})
import timing
loops = [timing.loop_sample() for _ in range(3)]
t0 = time.perf_counter()
import ordlift
t = time.perf_counter() - t0
loops += [timing.loop_sample() for _ in range(3)]
print(t, timing.median(loops))
"""


class Session:
    """Child processes of one run, all launched from here, one at a time."""

    def __init__(self, root: Path):
        self.root = root
        self.out_dir = root / OUT_DIR_NAME
        self.out_dir.mkdir(exist_ok=True)
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        # Bytecode is cached as for a user, but outside the source tree.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(self.out_dir / "pycache")
        self.env["PYTHONHASHSEED"] = "0"

    def python(self, args, check=True) -> subprocess.CompletedProcess:
        proc = subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
        if check and proc.returncode != 0:
            raise RuntimeError(f"{args[:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return proc

    def import_time(self) -> tuple[float, float]:
        """(raw, scaled) seconds of ``import ordlift`` in a fresh interpreter."""
        out = self.python(["-c", _IMPORT_PROBE.format(bench=str(BENCH_DIR))]).stdout.split()
        raw, loop = float(out[0]), float(out[1])
        return raw, raw * timing.NOMINAL_S / loop

    def worker(self, job_file: Path, mode: str, warm: int) -> dict:
        proc = self.python([str(BENCH_DIR / "worker.py"), str(job_file), mode, str(warm)])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def cli(self, commands) -> dict:
        """Run a CLI session; raw and scaled wall time, checked outputs.

        Process launches drift apart from in-process work, so the session is
        scaled by bare interpreter launches (``python3 -c pass``), one before
        each command and one after the last, to LAUNCH_NOMINAL_S each.
        """
        launches, raw, failed, wrong, spans = [], 0.0, 0, [], []
        for cmd in commands:
            launches.append(self.launch_time())
            t0 = time.perf_counter()
            proc = self.python(["-m", "ordlift", *cmd["argv"]], check=False)
            t1 = time.perf_counter()
            raw += t1 - t0
            spans.append(["cli." + cmd["argv"][0], t0, t1])
            problem = check_cli(cmd, proc)
            if problem:
                failed += 1
                if not cmd["fault"]:
                    wrong.append(problem)
        launches.append(self.launch_time())
        scaled = raw * LAUNCH_NOMINAL_S / timing.median(launches)
        return {"raw_s": raw, "scaled_s": scaled, "failed": failed, "wrong": wrong,
                "spans": spans}

    def launch_time(self) -> float:
        t0 = time.perf_counter()
        self.python(["-c", "pass"])
        return time.perf_counter() - t0


def check_cli(cmd, proc) -> str | None:
    """None when the command's output matches its reference, else why not."""
    argv, kind, expect = cmd["argv"], cmd["kind"], cmd["expect"]
    lines = proc.stdout.splitlines()
    where = "ordlift " + " ".join(argv)
    if proc.returncode != 0:
        return f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    if kind == "table":
        sep = "," if "csv" in argv else None
        try:
            rows = [[int(c) for c in line.split(sep)[1:]] for line in lines[1:]]
        except ValueError:
            rows = None
        return None if rows == expect else f"{where}: table differs from the reference"
    if kind == "verify":
        passes = sum(line.startswith("PASS ") for line in lines)
        ok = passes == expect and lines[-1].startswith(f"PASS: {expect} laws,") \
            and lines[-1].endswith(" 0 failures")
        return None if ok else f"{where}: {passes} PASS lines, last line {lines[-1:]}"
    if kind == "eval":
        return None if lines == [str(expect)] else f"{where}: printed {lines}, expected {expect}"
    want = "none" if expect is None else f"({expect[0]},{expect[1]})"
    return None if lines == [want] else f"{where}: printed {lines}, expected {want}"


def measured(session: Session, job: dict, job_file: Path, seconds: float) -> dict:
    warm = WARM_PASSES[job["workload"]]
    deadline = time.perf_counter() + seconds
    setup, rounds = [], []
    while not rounds or time.perf_counter() < deadline:
        setup += [session.import_time() for _ in range(SETUP_PER_ROUND)]
        lib = session.worker(job_file, "lib", warm)
        rounds.append({"lib": lib, "cli": session.cli(job["cli"])})
    n_ops = len(job["ops"])
    med = timing.median
    cold = [r["lib"]["passes"][0] for r in rounds]
    warm_p = [p for r in rounds for p in r["lib"]["passes"][1:]]
    cli = [r["cli"] for r in rounds]
    metrics, raw = {}, {}
    for key, scaled_v, raw_v in (
        ("setup_s", med([s for _, s in setup]), med([r for r, _ in setup])),
        ("cli_s", med([c["scaled_s"] for c in cli]), med([c["raw_s"] for c in cli])),
        ("cold_ops_per_s", n_ops / med([p["scaled_s"] for p in cold]),
         n_ops / med([p["raw_s"] for p in cold])),
        ("warm_ops_per_s", n_ops / med([p["scaled_s"] for p in warm_p]),
         n_ops / med([p["raw_s"] for p in warm_p])),
        ("op_p50_us", med([p["p50_scaled_us"] for p in warm_p]),
         med([p["p50_raw_us"] for p in warm_p])),
    ):
        metrics[key], raw[key] = scaled_v, raw_v
    metrics["peak_rss_mb"] = med([r["lib"]["rss_mb"] for r in rounds])
    raw["peak_rss_mb"] = med([r["lib"]["rss_mb"] + r["lib"]["job_mb"] for r in rounds])
    passes = [p for r in rounds for p in r["lib"]["passes"]]
    return {
        "metrics": metrics, "raw": raw,
        "attempted": len(rounds) * (n_ops * (1 + warm) + len(job["cli"])),
        "failed": sum(p["failed"] for p in passes) + sum(c["failed"] for c in cli),
        "wrong": [w for p in passes for w in p["wrong"]] + [w for c in cli for w in c["wrong"]],
        "samples": {"rounds": len(rounds), "setup": len(setup), "warm_passes": len(warm_p),
                    "ops_per_pass": n_ops,
                    "cli_scaled_s": [c["scaled_s"] for c in cli],
                    "cold_scaled_s": [p["scaled_s"] for p in cold],
                    "warm_scaled_s": [p["scaled_s"] for p in warm_p],
                    "setup_scaled_s": [s for _, s in setup]},
    }


def cli_probes(seed: int) -> list[dict]:
    """Fixed CLI commands for the per-layer cli.* metrics."""
    n, factors, pm1 = workloads.wide_moduli(random.Random(f"cli:{seed}"))[0]
    grid = [[ref.desk_values(a, m)["alpha"] for a in range(1, 21)] for m in range(1, 201)]
    return [
        {"key": "cli.eval_s", "argv": ["eval", "order", "3", str(n)], "kind": "eval",
         "expect": ref.wide_order(3, factors, pm1), "fault": False},
        {"key": "cli.table_s", "argv": ["table", "--n-max", "200"], "kind": "table",
         "expect": grid, "fault": False},
        {"key": "cli.verify_s", "argv": ["verify", "200", "8"], "kind": "verify",
         "expect": 15, "fault": False},
        {"key": "cli.verify_w2_s", "argv": ["verify", "200", "8", "--workers", "2"],
         "kind": "verify", "expect": 15, "fault": False},
        {"key": "cli.steinhaus_search_s", "argv": ["steinhaus", "search", "19", "170"],
         "kind": "search", "expect": list(ref.balanced_aps(19, 170)[0]), "fault": False},
    ]


def traced(session: Session, job: dict, job_file: Path) -> dict:
    """The worker's three repetitions count as three rounds, each with a CLI
    session, so that the failed share equals that of a measured run."""
    warm = WARM_PASSES[job["workload"]]
    lib = session.worker(job_file, "trace", warm)
    clis = [session.cli(job["cli"]) for _ in range(3)]
    metrics = lib["metrics"]
    metrics["cli.self_s"] = clis[1]["raw_s"]
    wrong = lib["wrong"] + [w for c in clis for w in c["wrong"]]
    for probe in cli_probes(job["seed"]):
        t0 = time.perf_counter()
        proc = session.python(["-m", "ordlift", *probe["argv"]], check=False)
        metrics[probe["key"]] = time.perf_counter() - t0
        problem = check_cli(probe, proc)
        if problem:
            wrong.append(problem)
    (session.out_dir / f"trace-{job['workload']}-cli.json").write_text(
        json.dumps(clis[1]["spans"]))
    if lib["kernels_note"]:
        print(f"compiled kernels not measured: {lib['kernels_note']}")
    print(f"lib.op_tail_us is the {lib['tail_pct']:g}th percentile of "
          f"{metrics['lib.op_tail_n']} warm call times")
    return {"metrics": metrics, "raw": {}, "wrong": wrong,
            "attempted": lib["attempted"] + 3 * len(job["cli"]),
            "failed": lib["failed"] + sum(c["failed"] for c in clis), "samples": {}}


def load_spec() -> dict:
    """Metric names and units, from BENCHMARK.json beside this directory."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ordlift" / "__init__.py").is_file():
        print(f"no ordlift source under {root}/src: run from an ordlift checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    session = Session(root)
    t0 = time.perf_counter()
    job = workloads.build(args.workload, args.seed)
    tag = f"{args.workload}-{args.seed}"
    job.update(workload=args.workload, seed=args.seed, root=str(root),
               out_dir=str(session.out_dir),
               trace_file=str(session.out_dir / f"trace-{args.workload}.npz"))
    job_file = session.out_dir / f"job-{tag}.jsonl"
    with job_file.open("w") as f:  # worker.load_job reads it line by line
        f.write(json.dumps({k: v for k, v in job.items() if k != "ops"}) + "\n")
        f.writelines(json.dumps(op) + "\n" for op in job["ops"])
    print(f"{args.workload} seed {args.seed}: {len(job['ops'])} calls per pass, "
          f"{len(job['cli'])} CLI commands per session, inputs in "
          f"{time.perf_counter() - t0:.2f} s")
    try:
        if args.trace:
            res = traced(session, job, job_file)
        else:
            res = measured(session, job, job_file, args.seconds)
    finally:
        job_file.unlink(missing_ok=True)

    units = spec["per_layer" if args.trace else "end_to_end"]
    missing = sorted(set(units) - set(res["metrics"]))
    for name in sorted(res["metrics"]):
        raw = res["raw"].get(name)
        print(f"  {name:40s} {res['metrics'][name]:14.6g} {units.get(name, '')}"
              + ("" if raw is None else f"   (raw {raw:.6g})"))
    for w in res["wrong"]:
        print(f"WRONG: {w}")
    if missing:
        print(f"not measured: {', '.join(missing)}")
    counts = {k: v for k, v in res["samples"].items() if isinstance(v, int)}
    print(f"samples: {counts}; attempted {res['attempted']}, failed {res['failed']}")
    result = {
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": u}
                    for k, u in units.items() if k in res["metrics"]},
    }
    (session.out_dir / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps({**result, "raw": res["raw"], "samples": res["samples"]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
