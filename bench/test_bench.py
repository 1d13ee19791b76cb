"""Tests of the benchmark itself: seeded inputs and the correctness checker.

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from worker import Tracer, layer_totals, run_op, run_round
from workloads import Op

BENCH = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed_and_differ_across_seeds(name):
    first = workloads.make_inputs(name, 3)
    assert json.loads(json.dumps(first)) == first
    assert workloads.make_inputs(name, 3) == first
    assert workloads.make_inputs(name, 4) != first
    ops = workloads.make_ops(name, first)
    ids = [op.id for op in ops]
    assert len(set(ids)) == len(ids)
    assert ids == [op.id for op in workloads.make_ops(name, workloads.make_inputs(name, 4))]


def _op(workload, op_id, seed=1):
    inputs = workloads.make_inputs(workload, seed)
    return next(op for op in workloads.make_ops(workload, inputs) if op.id == op_id)


def _corrupt(op, change):
    return Op(op.id, op.span, lambda ctx: change(op.call(ctx)), op.check, op.counts)


def test_checker_accepts_true_results():
    op = _op("exact-chain", "term_bound[n=6]")
    assert run_op(op, {}, Tracer(False), None)[0] == "ok"


@pytest.mark.parametrize("workload, op_id, change", [
    ("exact-chain", "exponent_matrix[n=12]", lambda m: m[1:]),
    ("exact-chain", "exponent_matrix[n=12]", lambda m: m[::-1] - (m[::-1] > 1)),
    ("exact-chain", "gamma_n[ones,n=14]", lambda g: g * (1 + 1e-9)),
    ("exact-chain", "cli paths --n 10", lambda r: (r[0], r[1].replace('"a": [1, 1', '"a": [1, 2', 1))),
    ("selfcheck", "expand_and_verify_identity[n=5]", lambda pairs: [(l, r + 1) for l, r in pairs]),
    ("selfcheck", "check_02_paths_n4",
     lambda res: type(res)(res.number, res.name, False, res.detail)),
    ("series-envelope", "j0[gaussian]", lambda vals: [v * (1 + 1e-9) for v in vals]),
])
def test_checker_flags_a_corrupted_result(workload, op_id, change):
    op = _corrupt(_op(workload, op_id), change)
    status, detail, _ = run_op(op, {}, Tracer(False), None)
    assert status == "incorrect", detail


def test_checker_flags_an_envelope_below_the_series():
    ops = workloads.make_ops("series-envelope", workloads.make_inputs("series-envelope", 1))
    fit = next(op for op in ops if op.id == "fit_envelope_constants[45 points]")
    ctx = {}
    for op in ops[:ops.index(fit)]:
        if op.id.endswith(",9 t]"):
            assert run_op(op, ctx, Tracer(False), None)[0] == "ok"
    low = _corrupt(fit, lambda c: (c[0], c[1] / 2.0))
    status, detail, _ = run_op(low, ctx, Tracer(False), None)
    assert status == "incorrect" and "below series" in detail


def test_checker_flags_a_reference_mismatch():
    op = _op("exact-chain", "term_bound[n=6]")
    _, _, values = run_op(op, {}, Tracer(False), None)
    reference = {op.id: {k: v + 10 * tol for k, (v, tol) in values.items()}}
    status, detail, _ = run_op(op, {}, Tracer(False), reference)
    assert status == "incorrect" and "reference" in detail


def test_checker_flags_an_operation_that_raises_and_the_round_goes_on():
    def boom(ctx):
        raise OverflowError("math range error")

    good = _op("exact-chain", "term_bound[n=4]")
    bad = Op("boom", "chaos_bounds.envelope_fit", boom, lambda r, ctx: {})
    tracer = Tracer(True)
    outcomes = run_round([bad, good], tracer, None)["outcomes"]
    assert outcomes[0] == ("boom", "raised", "OverflowError: math range error")
    assert outcomes[1][1] == "ok"
    assert [s["name"] for s in tracer.spans] == ["round", "chaos_bounds.envelope_fit",
                                                  "chaos_bounds.exact"]


def test_checker_flags_a_nonzero_exit():
    op = Op("cli", "cli.paths", lambda ctx: workloads.run_cli(["paths", "--n", "99"]),
            _op("exact-chain", "cli paths --n 10").check, lambda r: {})
    assert run_op(op, {}, Tracer(False), None)[0] == "exit"


def test_layer_totals_subtract_child_spans():
    spans = [
        {"id": 0, "parent": None, "name": "round", "start": 0.0, "end": 10.0, "counts": {}},
        {"id": 1, "parent": 0, "name": "a", "start": 1.0, "end": 4.0, "counts": {"n": 2}},
        {"id": 2, "parent": 0, "name": "a", "start": 5.0, "end": 6.0, "counts": {"n": 3}},
    ]
    totals = layer_totals(spans)
    assert totals == {"harness_s": 6.0, "a_s": 4.0, "n": 5}


def test_run_fails_without_the_library(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in ("run.py", "worker.py", "workloads.py"):
        (tmp_path / "bench" / f).write_text((BENCH / f).read_text())
    (tmp_path / "BENCHMARK.json").write_text((BENCH.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
