"""Tests of the benchmark's own output checks and layer accounting.

Run from the repository root: ``python3 -m pytest -q ltncbench``.
They use tiny versions of the workload shapes, so they take seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402

TRIAL = {"kind": "trial", "scheme": "ltnc", "n_nodes": 12, "k": 24,
         "payload_nbytes": 32, "inputs": 2, "setup_reps": 2}
FLEET = {
    "kind": "fleet", "trials": 2, "workers": 2, "inputs": 2, "setup_reps": 2,
    "specs": [
        {"name": "ltnc", "scheme": "ltnc", "n_nodes": 8, "k": 12},
        {"name": "rlnc", "scheme": "rlnc", "n_nodes": 8, "k": 16},
        {"name": "wc", "scheme": "wc", "n_nodes": 8, "k": 12},
        {"name": "ltnc_faulty", "scheme": "ltnc", "n_nodes": 8, "k": 12,
         "loss_rate": 0.1, "duplicate_rate": 0.05, "churn_rate": 0.02},
    ],
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]


def _run(params, trace, tmp_path, recorded=None, seed=5, seconds=0.1):
    return run.run_workload("tiny", params, seed, seconds, trace, recorded,
                            tmp_path / "work")


@pytest.mark.parametrize("params", [TRIAL, FLEET], ids=["trial", "fleet"])
def test_clean_run_passes_and_reports_every_metric(params, tmp_path):
    tally, metrics, fingerprints = _run(params, False, tmp_path)
    assert (tally.failed, tally.reasons) == (0, [])
    # Every input ran at least once.
    assert len(fingerprints) == params["inputs"]
    assert tally.attempted >= params["inputs"] * run._n_trials(params)
    assert sorted(metrics) == sorted(END_TO_END)
    assert metrics["pass_frac"] == 1.0
    assert all(metrics[name] > 0 for name in END_TO_END)

    tally, layers, _ = _run(params, True, tmp_path)
    assert (tally.failed, tally.reasons) == (0, [])
    assert sorted(layers) == sorted(PER_LAYER)
    assert all(value is not None for value in layers.values())
    # Traced and untraced runs did the same work.
    assert layers["costmodel.recode_ops"] == fingerprints[0]["recode_ops"]
    assert layers["costmodel.decode_ops"] == fingerprints[0]["decode_ops"]
    assert layers["gossip.sessions"] == fingerprints[0]["sessions"]
    assert not (tmp_path / "work").exists()


@pytest.mark.parametrize("params", [TRIAL, FLEET], ids=["trial", "fleet"])
def test_layer_self_times_reconcile_with_traced_wall(params, tmp_path):
    tally, m, _ = _run(params, True, tmp_path)
    assert tally.failed == 0
    layers = sum(m[name] for name in (
        "core.self_s", "lt.receive_s", "costmodel.add_s", "gf2.self_s",
        "rlnc.self_s", "wc.self_s", "gossip.self_s", "gossip.sampler_s",
        "gossip.channel_s", "scenarios.self_s",
    ))
    assert math.isclose(layers + m["trace.residual_s"], m["trace.wall_s"],
                        rel_tol=1e-9)
    assert 0 <= m["trace.residual_s"] < 0.05 * m["trace.wall_s"]


def test_fleet_layers_see_every_scheme_and_checkpoint(tmp_path):
    tally, m, _ = _run(FLEET, True, tmp_path)
    assert tally.failed == 0
    for name in ("rlnc.make_packet_us", "gf2.reduce_calls", "gf2.insert_calls",
                 "wc.make_packet_us", "core.make_packet_calls",
                 "scenarios.checkpoint_writes", "scenarios.build_ms",
                 "scenarios.trial_s_max", "gossip.channel_calls"):
        assert m[name] > 0, name


@pytest.mark.parametrize("params", [TRIAL, FLEET], ids=["trial", "fleet"])
def test_wrong_recorded_fingerprint_fails(params, tmp_path):
    _, _, fingerprints = _run(params, False, tmp_path)
    wrong = dict(fingerprints[0], sessions=fingerprints[0]["sessions"] + 1)
    for trace in (False, True):
        tally, metrics, _ = _run(params, trace, tmp_path, recorded=wrong)
        assert tally.failed > 0
        assert "recorded" in " ".join(tally.reasons)
        if not trace:
            assert metrics["pass_frac"] < 1.0


def test_repeats_time_each_input_and_check_it_repeats_its_work(tmp_path,
                                                               monkeypatch):
    params = dict(TRIAL, inputs=1)
    tally, metrics, fingerprints = _run(params, False, tmp_path, seconds=1.0)
    assert tally.failed == 0
    assert tally.attempted > 1
    assert metrics["sessions_per_s"] == pytest.approx(
        fingerprints[0]["sessions"] / metrics["wall_s"])

    fingerprint = run.trial_fingerprint
    calls = []

    def drifting(result, content):
        calls.append(1)
        return dict(fingerprint(result, content), rounds=len(calls))

    monkeypatch.setattr(run, "trial_fingerprint", drifting)
    tally, _, _ = _run(params, False, tmp_path, seconds=1.0)
    assert tally.failed == tally.attempted - 1 > 0
    assert "the input's first run" in " ".join(tally.reasons)


def test_corrupted_expected_bytes_fail(tmp_path, monkeypatch):
    make_inputs = run.make_inputs

    def corrupted(params, seed, unit):
        inputs = make_inputs(params, seed, unit)
        inputs["expected"][3, 7] ^= 0x40
        return inputs

    monkeypatch.setattr(run, "make_inputs", corrupted)
    for trace in (False, True):
        tally, _, _ = _run(TRIAL, trace, tmp_path)
        assert tally.failed > 0
        assert "wrong bytes" in " ".join(tally.reasons)


@pytest.mark.parametrize("params", [TRIAL, FLEET], ids=["trial", "fleet"])
def test_raising_trial_fails(params, tmp_path, monkeypatch):
    from repro.gossip import EpidemicSimulator

    def boom(self):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(EpidemicSimulator, "run", boom)
    for trace in (False, True):
        tally, metrics, _ = _run(params, trace, tmp_path)
        assert tally.failed == tally.attempted == run._n_trials(params)
        assert "injected failure" in " ".join(tally.reasons)
        assert metrics == {}


def test_missing_hook_is_reported_not_fatal(tmp_path, monkeypatch):
    hooks = tuple(
        (span, module, cls, ("make_packet_removed",))
        if span == "core.make_packet" else (span, module, cls, methods)
        for span, module, cls, methods in spans.HOOKS
    ) + (("gf2.reduce", "repro.gf2.gone", "Nope", ("reduce",)),)
    monkeypatch.setattr(spans, "HOOKS", hooks)
    tally, m, _ = _run(TRIAL, True, tmp_path)
    assert tally.failed == 0
    for name in ("core.make_packet_calls", "core.make_packet_us",
                 "core.make_packet_s", "core.self_s"):
        assert m[name] is None, name
    # The reduce span still has a live target in the other kernels.
    assert m["gf2.reduce_calls"] == 0
    assert m["core.receive_calls"] > 0


def test_tracer_restores_the_program():
    from repro.core.node import LtncNode
    from repro.costmodel import OpCounter

    before = (LtncNode.make_packet, OpCounter.add)
    with spans.SpanTracer() as tracer:
        assert LtncNode.make_packet is not before[0]
        assert not tracer.missing
    assert (LtncNode.make_packet, OpCounter.add) == before


def test_inputs_depend_only_on_seed():
    a = run.make_inputs(TRIAL, 3, 0)
    b = run.make_inputs(TRIAL, 3, 0)
    c = run.make_inputs(TRIAL, 4, 0)
    assert a["seed"] == b["seed"] != c["seed"]
    assert (a["content"] == b["content"]).all()
    assert not (a["content"] == c["content"]).all()


def test_recorded_fingerprints_cover_the_default_seed():
    table = run.load_fingerprints()
    for name in run.WORKLOADS:
        assert str(run.DEFAULT_SEED) in table[name], name


def test_benchmark_json_matches_targets():
    targets = json.loads((BENCH_DIR / "targets.json").read_text())
    assert list(targets) == PER_LAYER
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    assert workloads == list(run.WORKLOADS)
    for target in targets.values():
        assert set(target["moves"]) <= set(END_TO_END)
        assert set(target["on"]) <= set(workloads)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_cli_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "ltncbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "ltncbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "ltncbench/run.py", "--workload", "ltnc_deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
