"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import reference as ref
import run
import workloads

sys.path.insert(0, str(run.SRC))

import ops  # noqa: E402  (needs the program on the path)
import tracing  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    a = workloads.build(name, 7, run.ROOT)
    b = workloads.build(name, 7, run.ROOT)
    c = workloads.build(name, 8, run.ROOT)
    assert a.ops == b.ops and a.inputs() == b.inputs()
    assert a.inputs() != c.inputs()
    assert len(a.ops) == len(c.ops)


def _sample(w, pick):
    """The workload restricted to the first operation of each kind and
    expected status that ``pick`` accepts, so a traced pass stays short."""
    chosen = {}
    for op in w.ops:
        key = (op["kind"], op["expect"].get("status"))
        if key not in chosen and pick(op):
            chosen[key] = op
    return dataclasses.replace(w, ops=list(chosen.values()))


CHEAP = {
    "frame-search": lambda op: op["args"]["max_size"] == 5,
    "wide-frames": lambda op: op["kind"] != "frame_check" or op["expect"]["m"] <= 256,
    "polyhedra": lambda op: op["kind"] != "realize_verify" or len(op["expect"]["simplices"]) < 31,
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_spans_fire_on_their_workload(name):
    w = _sample(workloads.build(name, 0, run.ROOT), CHEAP[name])
    tracer = tracing.Tracer()
    records, passes = run.run_passes(w, ops.prepare(w), 0, tracer)
    assert len(passes) == 1 and passes[0]["traced"]
    assert [r["cause"] for r in records] == [None] * len(records)
    layer = tracer.pass_metrics(0, passes[0]["op_s"])
    for group, (_metrics, exercised_on) in tracing.LAYER_MAP.items():
        if name in exercised_on:
            assert layer[f"{group}.self_s"] > 0, group
    assert set(layer) | {"trace.overhead_share"} == {m for m, _u, _b in tracing.per_layer_metrics()}
    # The wrappers are gone once the pass ends.
    assert ops.algebra.is_valid is ops.pipeline.is_valid
    assert not hasattr(ops.algebra.is_valid, "__wrapped__")


def test_wrong_answers_are_failures(monkeypatch):
    w = _sample(workloads.build("polyhedra", 0, run.ROOT), lambda op: op["kind"] == "point")
    real = ops.execute

    def lying(op, loaded):
        got = real(op, loaded)
        got["carrier"] = got["carrier"][:-1] or ["nowhere"]
        return got

    monkeypatch.setattr(ops, "execute", lying)
    records, _ = run.run_passes(w, ops.prepare(w), 0, None)
    assert len(records) == 1
    assert records[0]["cause"].startswith("wrong answer: carrier")


def test_checker_rejects_wrong_witnesses():
    w = workloads.build("frame-search", 0, run.ROOT)
    op = next(o for o in w.ops if o["expect"]["family"] == "excluded-middle")
    got = ops.execute(op, ops.prepare(dataclasses.replace(w, ops=[op])))
    assert ops.check(op, got, w) is None
    atom_name = next(iter(got["valuation"]))
    everything = dict(got, valuation={atom_name: got["frame"]["elements"]})
    assert "does not refute" in ops.check(op, everything, w)
    assert "status" in ops.check(op, dict(got, status="NoCountermodelUpToBound"), w)


def test_reference_frame_properties():
    two_chain = ref.Frame.from_covers(["a", "b"], [("a", "b")])
    fork = ref.Frame.from_covers(["r", "x", "y"], [("r", "x"), ("r", "y")])
    em = ref.disj(ref.atom("p"), ref.neg(ref.atom("p")))
    assert ref.refutation_error(two_chain, {"p": {"b"}}, em) is None
    assert ref.refutation_error(two_chain, {"p": {"a"}}, em) == "witness value of p is not an up-set"
    assert not ref.frame_verdict(two_chain, "em") and ref.frame_verdict(two_chain, "wem")
    assert not ref.frame_verdict(fork, "wem") and not ref.frame_verdict(fork, "dummett")
    assert fork.depth() == 1 and fork.upset_count() == 5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "polyhedra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _u, _b in tracing.per_layer_metrics()]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "ok_ratio", "setup_s"}
