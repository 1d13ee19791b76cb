"""Benchmark of pam_moments: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload exact-chain --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

A run times the workload's fixed list of operations in rounds for about
--seconds and checks every result.  The last line of stdout is one JSON
object: with --trace 0 the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics.  `--workload all` runs every workload
untraced and traced and prints a table of all metrics.

End-to-end metrics:
  setup_s      median over five processes of the time to import pam_moments,
               build the workload from its seed and call each layer once
  wall_s       sum over operations of the median time of each (call and
               check), scaled to the reference speed (see worker.py)
  ok_frac      operations that returned a correct result / operations run
  peak_rss_mb  peak resident memory of the measuring process

Per-layer metrics are self times of the spans around the benchmark's calls
into each layer (scaled like wall_s) and work counts, per round.

Each run's machine facts, failed operations and metrics are written to
bench/out/, with the spans of a traced run beside them.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4  # set-up-only processes besides the measuring one
RUN_LIMIT_S = 170.0


def machine_facts(seed: int, env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        **versions,
        "thread_caps": {k: env[k] for k in THREAD_VARS},
        "seed": seed,
    }


def worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run bench/worker.py to completion; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the result object and writes its report."""
    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ)
    env.update({k: str(len(os.sched_getaffinity(0))) for k in THREAD_VARS})
    facts = machine_facts(seed, env)
    print("machine " + json.dumps(facts, sort_keys=True), flush=True)

    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(worker(common + ["--setup-only"], env, deadline)["setup_s"])
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{trace}"
    args = common + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--spans", str(stem.with_suffix(".spans.jsonl"))]
    summary = worker(args, env, deadline)
    setups.append(summary["setup_s"])

    for f in summary["failures"]:
        print(f"failed {workload}: {f['op']} ({f['status']}, {f['times']}x): {f['detail']}")
    attempted, failed = summary["attempted"], summary["failed"]
    if trace:
        metrics = spec["per_layer"]
        values = dict(summary["per_layer"])
        values["trace_overhead_frac"] = summary["traced_wall_s"] / summary["wall_s"] - 1.0
        for key in ("wall_raw_s", "calibration_s"):
            values[key] = summary[key]
    else:
        metrics = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": summary["wall_s"],
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": summary["peak_rss_mb"],
        }
    result = {
        "correct": summary["correct"],
        "attempted": attempted,
        "failed": failed,
        # a layer the workload does not call reads 0
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in metrics},
    }
    report = {"machine": facts, "worker": summary, "setup_s_samples": setups, "result": result}
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "pam_moments" / "__init__.py").is_file():
        print(f"no pam_moments sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(run_workload(spec, args.workload, args.seed, args.seconds, args.trace)))
        return 0

    rows: dict = {}
    for name in names:
        for trace in (0, 1):
            result = run_workload(spec, name, args.seed, args.seconds, trace)
            rows.setdefault(f"correct[trace={trace}]", {})[name] = str(result["correct"])
            for metric, m in result["metrics"].items():
                rows.setdefault(f"{metric} [{m['unit']}]", {})[name] = f"{m['value']:.6g}"
    print(f"{'metric':42}" + "".join(f"{n:>16}" for n in names))
    for label, row in rows.items():
        print(f"{label:42}" + "".join(f"{row[n]:>16}" for n in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
