"""One workload in one process: set-up, timed rounds, checks and spans.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

Prints one JSON object.  `bench/run.py` starts this script and turns its
output into the benchmark's result; run that instead.

Times are reported twice: as measured ("raw"), and scaled to a reference
machine speed.  The speed of the 2-vCPU machine this benchmark was tuned on
switches by up to 1.5x within seconds, and stays switched for minutes,
whatever runs on it.  So before and after every operation the worker times
`calibrate`, a fixed kernel that does not use pam_moments, and scales the
operation's time by CALIBRATION_REF_S divided by the kernel's time around
it.  Over five exact-chain runs the raw time read 1.73-2.52 s and the
scaled time 1.62-1.69 s.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import io
import json
import resource
import statistics
import sys
from collections import Counter
from contextlib import contextmanager, redirect_stderr
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from scipy.special import gammaln  # noqa: E402

import workloads  # noqa: E402  (imports pam_moments, inside the set-up time)
from workloads import Mismatch, NonzeroExit  # noqa: E402

# about the median time of `calibrate` on the Intel Xeon 2-vCPU machine the
# benchmark was tuned on; it only sets the scale of the scaled times
CALIBRATION_REF_S = 0.004
_CAL_X = np.linspace(0.5, 50.0, 4096)
_CAL_U = _CAL_X[:300]
_CAL_BIG = np.ones(3 << 20)  # 24 MB: past L2, as the workloads' batches are


def calibrate() -> float:
    """Time a fixed mix of the workloads' kinds of work.

    Interpreter loops over dicts and ints, many numpy calls on short arrays,
    scipy vector maths on long ones, and about a third of the time a pass
    over an array larger than the L2 cache.  The machine's fast state speeds
    cache-resident work up by about 1.5x and the large-array pass by about
    1.1x; the operations lie in between, most of them nearer the first.
    """
    start = time.perf_counter()
    acc: dict = {}
    for i in range(3000):
        acc[i % 61] = acc.get(i % 61, 0) + i * i
    for i in range(120):
        bool(np.all(_CAL_U * i + 1.0 >= _CAL_U))
    for _ in range(6):
        gammaln(_CAL_X)
        np.exp(-_CAL_X)
    np.multiply(_CAL_BIG, 1.0, out=_CAL_BIG)
    return time.perf_counter() - start


class Tracer:
    """Spans around the benchmark's own calls into each layer, kept in memory.

    A span records its name, start, end, parent span and operation id.  When
    disabled, `span` records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, op_id: str | None):
        rec = {"name": name, "op": op_id, "counts": {}}
        if not self.enabled:
            yield rec
            return
        rec["id"] = len(self.spans)
        rec["parent"] = self._open[-1]["id"] if self._open else None
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def run_op(op, ctx: dict, tracer: Tracer, reference: dict | None) -> tuple[str, str, dict]:
    """Run and check one operation; return (status, detail, checked values).

    status is "ok", "raised" (the call raised), "exit" (a CLI call exited
    non-zero) or "incorrect" (the result failed its check or differs from
    the reference).  Only "ok" stores the result for later operations.
    """
    with tracer.span(op.span, op.id) as rec:
        try:
            with redirect_stderr(io.StringIO()):
                result = op.call(ctx)
        # a failing operation is recorded and the round goes on
        except Exception as exc:
            return "raised", f"{type(exc).__name__}: {exc}", {}
        rec["counts"] = op.counts(result)
    try:
        values = op.check(result, ctx)
    except NonzeroExit as exc:
        return "exit", str(exc), {}
    except Mismatch as exc:
        return "incorrect", str(exc), {}
    except Exception as exc:
        return "incorrect", f"check raised {type(exc).__name__}: {exc}", {}
    for key, want in (reference or {}).get(op.id, {}).items():
        got, tol = values.get(key, (float("nan"), 0.0))
        if not abs(got - want) <= tol:
            return "incorrect", f"{key} = {got!r}, reference {want!r} (tol {tol:.3g})", {}
    ctx[op.id] = result
    return "ok", "", values


def run_round(ops, tracer: Tracer, reference: dict | None) -> dict:
    """All operations in order, each between two calibrations.

    Returns each operation's raw and scaled time (call and check), its
    outcome as (op id, status, detail), the checked values of operations
    that passed and the round's mean scale factor.
    """
    ctx: dict = {}
    out: dict = {"raw": {}, "scaled": {}, "outcomes": [], "values": {}}
    with tracer.span("round", None):
        cal = calibrate()
        for op in ops:
            start = time.perf_counter()
            status, detail, checked = run_op(op, ctx, tracer, reference)
            raw = time.perf_counter() - start
            cal_after = calibrate()
            out["raw"][op.id] = raw
            out["scaled"][op.id] = raw * CALIBRATION_REF_S / (0.5 * (cal + cal_after))
            out["outcomes"].append((op.id, status, detail))
            out["values"][op.id] = {k: v for k, (v, _) in checked.items()}
            cal = cal_after
    out["scale"] = sum(out["scaled"].values()) / sum(out["raw"].values())
    return out


def layer_totals(spans: list[dict], scale: float = 1.0) -> dict:
    """Per-layer self time ("<span>_s", times `scale`) and counts of spans.

    A span's self time is its duration minus the time its children cover.
    The round span's self time is the harness: checks, calibration and
    bookkeeping.
    """
    child_time: dict = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    totals: dict = {}
    for s in spans:
        key = "harness_s" if s["name"] == "round" else f"{s['name']}_s"
        self_time = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        totals[key] = totals.get(key, 0.0) + scale * self_time
        for name, value in s["counts"].items():
            totals[name] = totals.get(name, 0) + value
    return totals


def _sum_of_medians(per_op: dict) -> float:
    return sum(statistics.median(times) for times in per_op.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's checked values as the reference")
    args = parser.parse_args(argv)

    ops = workloads.make_ops(args.workload, workloads.make_inputs(args.workload, args.seed))
    workloads.warm_up()
    # set-up is mostly imports, whose time the calibration kernel does not
    # track, so it is reported as measured
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = None
    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if args.seed == workloads.DEFAULT_SEED and not args.write_reference:
        reference = references.get(args.workload)

    # Untraced rounds give wall_s; a traced run alternates untraced and
    # traced rounds so that both see the same machine states.
    plain, traced = Tracer(False), Tracer(True)
    raw: dict = {False: {}, True: {}}
    scaled: dict = {False: {}, True: {}}
    outcomes, per_round, scales = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        round_start = time.perf_counter()
        for tracer in (plain, traced) if args.trace else (plain,):
            first = len(tracer.spans)
            rnd = run_round(ops, tracer, reference)
            for op_id in rnd["raw"]:
                raw[tracer.enabled].setdefault(op_id, []).append(rnd["raw"][op_id])
                scaled[tracer.enabled].setdefault(op_id, []).append(rnd["scaled"][op_id])
            outcomes += rnd["outcomes"]
            scales.append(rnd["scale"])
            if tracer.enabled:
                per_round.append(layer_totals(tracer.spans[first:], rnd["scale"]))
        # stop when another round like the last one would end past the deadline
        if 2 * time.perf_counter() - round_start > deadline:
            break

    if args.write_reference:
        references[args.workload] = {k: v for k, v in rnd["values"].items() if v}
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")

    failures = Counter(o for o in outcomes if o[1] != "ok")
    summary = {
        "setup_s": setup_s,
        "rounds": len(next(iter(raw[False].values()))),
        "wall_s": _sum_of_medians(scaled[False]),
        "wall_raw_s": _sum_of_medians(raw[False]),
        "op_s": {k: statistics.median(v) for k, v in scaled[False].items()},
        "calibration_s": CALIBRATION_REF_S / statistics.median(scales),
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "correct": not any(status == "incorrect" for _, status, _ in outcomes),
        "failures": [{"op": o, "status": s, "detail": d, "times": k}
                     for (o, s, d), k in failures.items()],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        summary["traced_wall_s"] = _sum_of_medians(scaled[True])
        keys = sorted({k for totals in per_round for k in totals})
        summary["per_layer"] = {
            k: statistics.median(totals.get(k, 0) for totals in per_round) for k in keys
        }
    if args.spans and traced.spans:
        with open(args.spans, "w") as fh:
            for s in traced.spans:
                fh.write(json.dumps(s) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
