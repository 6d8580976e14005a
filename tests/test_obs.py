"""Unit tests for the observability layer (repro.obs + tracestats).

Covers the pieces in isolation — the invariance contracts (traced runs
change nothing) live in ``tests/test_obs_invariance.py``:

* ``JsonlTracer`` — header-first JSONL, event/counter/span shapes,
  idempotent close, post-close drops;
* ``PhaseProfiler`` — accumulation, merge, snapshot fractions, the
  refine hook;
* fleet progress — EMA trials/sec, replay exclusion, rendering, the
  atomic ``progress.json``;
* ``ObsSpec`` — validation, tracer/profiler construction, exclusion
  from workload identity;
* ``tracestats`` — schema validation and the derived views.
"""

import json

import pytest

from repro.errors import SimulationError
from repro.obs import (
    NULL_TRACER,
    PHASES,
    PROGRESS_FORMAT,
    PROGRESS_VERSION,
    TRACE_FORMAT,
    TRACE_VERSION,
    JsonlTracer,
    ObsSpec,
    PhaseProfiler,
    ProgressTracker,
    node_rank,
    read_trace,
    render_progress,
    trace_filename,
    write_progress,
)
from repro.experiments.tracestats import (
    completion_wave,
    counter_totals,
    phase_breakdown,
    rank_curve,
    trace_summary,
    validate_trace,
)
from repro.experiments import tracestats


# -- tracer --------------------------------------------------------------
def test_null_tracer_is_disabled_and_inert():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.detail == "round"
    NULL_TRACER.event("x", round=1)
    NULL_TRACER.counter("y", 3)
    with NULL_TRACER.span("z"):
        pass
    NULL_TRACER.close()  # all no-ops


def test_jsonl_tracer_writes_header_first(tmp_path):
    path = tmp_path / "t.jsonl"
    with JsonlTracer(path, meta={"scenario": "s", "seed": 7}) as tracer:
        tracer.event("round", round=0, completed=2)
        tracer.counter("sessions", 5)
        with tracer.span("run", part="all"):
            pass
    records = read_trace(path)
    assert [r["kind"] for r in records] == ["header", "event", "counter", "span"]
    header = records[0]
    assert header["format"] == TRACE_FORMAT
    assert header["version"] == TRACE_VERSION
    assert header["scenario"] == "s" and header["seed"] == 7
    assert records[1]["round"] == 0 and records[1]["completed"] == 2
    assert records[2]["value"] == 5
    assert records[3]["dt"] >= 0 and records[3]["part"] == "all"
    assert all(r["t"] >= 0 for r in records[1:])


def test_jsonl_tracer_close_is_idempotent_and_drops_late_records(tmp_path):
    tracer = JsonlTracer(tmp_path / "t.jsonl")
    tracer.close()
    tracer.close()
    tracer.event("late", round=9)  # silently dropped
    assert len(read_trace(tmp_path / "t.jsonl")) == 1  # header only


def test_jsonl_tracer_rejects_unknown_detail(tmp_path):
    with pytest.raises(ValueError, match="detail"):
        JsonlTracer(tmp_path / "t.jsonl", detail="packet")


def test_read_trace_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "header"}\nnot json\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        read_trace(path)
    path.write_text('["list"]\n')
    with pytest.raises(ValueError, match="JSON objects"):
        read_trace(path)


def test_trace_filename_is_filesystem_safe():
    assert trace_filename("baseline", 3) == "trace-baseline-3.jsonl"
    assert (
        trace_filename("baseline[ltnc]/x", 3) == "trace-baseline_ltnc_x-3.jsonl"
    )


def test_node_rank_reads_known_node_shapes():
    class Rlnc:
        rank = 4

    class Ltnc:
        decoded_count = 7

    class Wc:
        received = {1, 2}

    assert node_rank(Rlnc()) == 4
    assert node_rank(Ltnc()) == 7
    assert node_rank(Wc()) == 2
    assert node_rank(object()) is None


# -- profiler ------------------------------------------------------------
def test_phase_profiler_accumulates_and_snapshots():
    p = PhaseProfiler()
    assert not p
    p.add("encode", 0.25)
    p.add("encode", 0.25, calls=2)
    p.add("decode", 0.5)
    assert p
    assert p.total_seconds() == pytest.approx(1.0)
    snap = p.snapshot()
    assert list(snap) == ["encode", "decode"]  # canonical PHASES order
    assert snap["encode"]["calls"] == 3
    assert snap["encode"]["fraction"] == pytest.approx(0.5)


def test_phase_profiler_context_manager_and_merge():
    a, b = PhaseProfiler(), PhaseProfiler()
    with a.phase("sampling"):
        pass
    b.add("sampling", 1.0, calls=4)
    b.add("other", 2.0)
    a.merge(b)
    assert a.calls["sampling"] == 5
    assert a.seconds["other"] == pytest.approx(2.0)
    # Unknown phases sort after the canonical ones.
    assert list(a.snapshot()) == ["sampling", "other"]
    assert set(PHASES) == {"sampling", "channel", "encode", "decode", "refine"}


def test_refine_profiler_is_per_simulator():
    """Two profiled runs in one process charge refine to their own sink.

    Rounds of the two simulators interleave; each profiler's refine
    calls must equal the builds (every build is refined) of its own
    simulator's nodes and sources, and an unprofiled simulator's nodes
    carry no hook at all.
    """
    from repro.gossip import EpidemicSimulator

    sims = [
        EpidemicSimulator("ltnc", 8, 16, seed=s, profiler=PhaseProfiler())
        for s in (1, 2)
    ]
    plain = EpidemicSimulator("ltnc", 8, 16, seed=3)
    for r in range(40):
        for sim in sims + [plain]:
            if not sim.result.all_complete:
                sim.step(r)
    for sim in sims:
        members = sim.sources + sim.nodes
        assert all(node.profiler is sim.profiler for node in members)
        builds = sum(node.stats.builds for node in members)
        assert builds > 0
        assert sim.profiler.calls["refine"] == builds
    assert all(node.profiler is None for node in plain.sources + plain.nodes)


# -- fleet progress ------------------------------------------------------
def test_progress_tracker_ema_and_eta():
    tracker = ProgressTracker(shards_total=4, trials_total=40)
    beat = tracker.shard_finished("s", 0, n_trials=10, seconds=2.0)
    assert beat.shards_done == 1 and beat.trials_done == 10
    assert beat.trials_per_sec == pytest.approx(5.0)
    assert beat.eta_seconds == pytest.approx(30 / 5.0)
    # EMA with alpha 0.5 moves halfway towards the new rate.
    beat = tracker.shard_finished("s", 1, n_trials=10, seconds=1.0)
    assert beat.trials_per_sec == pytest.approx(7.5)


def test_progress_tracker_excludes_replayed_shards_from_rate():
    tracker = ProgressTracker(shards_total=2, trials_total=20)
    live = tracker.shard_finished("s", 0, n_trials=10, seconds=2.0)
    replay = tracker.shard_finished(
        "s", 1, n_trials=10, seconds=0.001, replayed=True
    )
    assert replay.shards_done == 2 and replay.trials_done == 20
    # The instantaneous replay did not poison the throughput estimate.
    assert replay.trials_per_sec == live.trials_per_sec
    assert replay.replayed is True
    assert "(replayed)" in render_progress(replay)


def test_render_progress_is_one_line():
    tracker = ProgressTracker(shards_total=8, trials_total=32)
    beat = tracker.shard_finished("baseline", 2, n_trials=4, seconds=1.0)
    line = render_progress(beat)
    assert "\n" not in line
    assert "baseline" in line and "shard 1/8" in line and "ETA" in line


def test_write_progress_is_atomic_json(tmp_path):
    tracker = ProgressTracker(shards_total=1, trials_total=4)
    beat = tracker.shard_finished("s", 0, n_trials=4, seconds=1.0)
    out = tmp_path / "progress.json"
    write_progress(out, beat)
    payload = json.loads(out.read_text())
    assert payload["format"] == PROGRESS_FORMAT
    assert payload["version"] == PROGRESS_VERSION
    assert payload["shards_done"] == payload["shards_total"] == 1
    assert payload["updated_unix"] > 0
    assert not list(tmp_path.glob("*.tmp*"))


# -- ObsSpec -------------------------------------------------------------
def test_obs_spec_validates_detail():
    with pytest.raises(SimulationError, match="detail"):
        ObsSpec(trace_dir="x", detail="packet")


def test_obs_spec_enabled_and_builders(tmp_path):
    off = ObsSpec()
    assert not off.enabled
    assert off.build_tracer("s", 1) is NULL_TRACER
    assert off.build_profiler() is None

    tracing = ObsSpec(trace_dir=tmp_path)
    assert tracing.enabled
    tracer = tracing.build_tracer("s", 1)
    try:
        assert tracer.enabled
        assert tracer.path == tmp_path / trace_filename("s", 1)
    finally:
        tracer.close()

    profiling = ObsSpec(profile=True)
    assert profiling.enabled
    assert profiling.build_tracer("s", 1) is NULL_TRACER
    assert isinstance(profiling.build_profiler(), PhaseProfiler)


def test_obs_spec_roundtrips_and_stays_out_of_workload_identity(tmp_path):
    from repro.scenarios.spec import ScenarioSpec

    obs = ObsSpec(trace_dir=tmp_path, detail="session", profile=True)
    assert ObsSpec.from_dict(obs.to_dict()) == obs

    plain = ScenarioSpec(name="s", n_nodes=8, k=16)
    observed = plain.with_(obs=obs)
    assert observed.obs == obs
    assert observed.to_dict() == plain.to_dict()
    # from_dict accepts the dict form too (worker-side plumbing).
    assert ScenarioSpec(name="s", obs=obs.to_dict()).obs == obs


# -- tracestats ----------------------------------------------------------
def _trace_records():
    return [
        {
            "kind": "header",
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "detail": "round",
            "scenario": "s",
            "seed": 3,
        },
        {"kind": "event", "name": "round", "t": 0.1, "round": 0,
         "completed": 0, "rank_total": 3, "rank_min": 0, "rank_max": 2},
        {"kind": "event", "name": "round", "t": 0.2, "round": 1,
         "completed": 2, "rank_total": 9, "rank_min": 1, "rank_max": 5},
        {"kind": "event", "name": "complete", "t": 0.2, "node": 0, "round": 1},
        {"kind": "event", "name": "complete", "t": 0.2, "node": 1, "round": 1},
        {"kind": "event", "name": "phases", "t": 0.3,
         "phases": {"encode": {"seconds": 0.2, "calls": 5, "fraction": 1.0}}},
        {"kind": "counter", "name": "sessions", "t": 0.3, "value": 11},
        {"kind": "counter", "name": "sessions", "t": 0.4, "value": 12},
    ]


def test_validate_trace_accepts_real_shape():
    header = validate_trace(_trace_records())
    assert header["scenario"] == "s"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda r: r.pop(0), "not the header"),
        (lambda r: r[0].update(version=99), "header.version"),
        (lambda r: r[0].update(detail="packet"), "header.detail"),
        (lambda r: r.append({"kind": "header"}), "duplicate header"),
        (lambda r: r.append({"kind": "blob", "t": 0.1}), "unknown kind"),
        (lambda r: r[1].pop("t"), "bad timestamp"),
        (lambda r: r[1].pop("name"), "no name"),
        (lambda r: r[-1].update(value="many"), "not an integer"),
    ],
)
def test_validate_trace_rejects_bad_records(mutate, message):
    records = _trace_records()
    mutate(records)
    with pytest.raises(ValueError, match=message):
        validate_trace(records)


def test_validate_trace_rejects_empty():
    with pytest.raises(ValueError, match="empty trace"):
        validate_trace([])


def test_tracestats_views():
    records = _trace_records()
    curve = rank_curve(records)
    assert [row["round"] for row in curve] == [0, 1]
    assert curve[1]["rank_total"] == 9
    assert completion_wave(records) == {1: 2}
    assert phase_breakdown(records)["encode"]["calls"] == 5
    assert counter_totals(records) == {"sessions": 12}  # last sample wins
    summary = trace_summary(records)
    assert summary["rounds"] == 2 and summary["completions"] == 2


def test_tracestats_cli_validates_and_summarises(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    with open(path, "w") as fh:
        for record in _trace_records():
            fh.write(json.dumps(record) + "\n")
    assert tracestats.main(["--validate", str(path)]) == 0
    assert f"OK {path}" in capsys.readouterr().out

    out = tmp_path / "summary.json"
    assert tracestats.main(
        ["--curve", "--wave", "--phases", "--json", str(out), str(path)]
    ) == 0
    text = capsys.readouterr().out
    assert "rank_total" in text and "completions" in text and "encode" in text
    payload = json.loads(out.read_text())
    assert payload[str(path)]["counters"] == {"sessions": 12}


def test_tracestats_cli_fails_on_invalid_trace(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "event", "name": "round", "t": 0.0}\n')
    assert tracestats.main(["--validate", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().err


# -- gzip traces ---------------------------------------------------------
def test_trace_filename_compress_flag():
    assert trace_filename("baseline", 3, compress=True) == (
        "trace-baseline-3.jsonl.gz"
    )
    assert trace_filename("baseline", 3) == "trace-baseline-3.jsonl"


def test_jsonl_tracer_gzip_roundtrip(tmp_path):
    import gzip

    path = tmp_path / trace_filename("s", 7, compress=True)
    with JsonlTracer(path, meta={"scenario": "s", "seed": 7}) as tracer:
        tracer.event("round", round=0, completed=1)
        with tracer.span("run"):
            pass
    # The bytes on disk really are gzip...
    with gzip.open(path, "rt") as fh:
        assert json.loads(fh.readline())["kind"] == "header"
    # ...and read_trace reads it transparently, same shape as plain.
    records = read_trace(path)
    assert [r["kind"] for r in records] == ["header", "event", "span"]
    validate_trace(records, source=str(path))


def test_emit_span_records_duration_and_depth(tmp_path):
    import time as time_module

    path = tmp_path / "t.jsonl"
    with JsonlTracer(path) as tracer:
        tracer.emit_span("collect", time_module.monotonic(), 0.25, depth=1)
    record = read_trace(path)[1]
    assert record["kind"] == "span" and record["name"] == "collect"
    assert record["dt"] == 0.25 and record["depth"] == 1
    assert record["t"] >= 0
    # NullTracer's twin is inert.
    NULL_TRACER.emit_span("collect", 0.0, 0.1)


# -- progress degradation ------------------------------------------------
def test_render_progress_degrades_on_zero_totals():
    from repro.obs.progress import FleetProgress

    beat = FleetProgress(
        scenario="s",
        shard_index=0,
        shards_done=0,
        shards_total=0,
        trials_done=0,
        trials_total=0,
        replayed=False,
        trials_per_sec=None,
        eta_seconds=None,
    )
    line = render_progress(beat)  # must not divide by zero
    assert "[shard 0/?]" in line
    assert "ETA ?" in line


def test_render_progress_unknown_rate_mid_run_shows_eta_placeholder():
    # All shards so far replayed from checkpoints: no rate sample yet.
    tracker = ProgressTracker(shards_total=4, trials_total=40)
    beat = tracker.shard_finished("s", 0, n_trials=10, seconds=0.0, replayed=True)
    assert beat.trials_per_sec is None and beat.eta_seconds is None
    assert "ETA ?" in render_progress(beat)
    # Once every trial is done there is nothing left to estimate.
    done = ProgressTracker(shards_total=1, trials_total=10)
    final = done.shard_finished("s", 0, n_trials=10, seconds=0.0, replayed=True)
    assert "ETA" not in render_progress(final)


# -- profiler exception safety -------------------------------------------
def test_phase_profiler_charges_raising_phase_and_keeps_accounting():
    p = PhaseProfiler()
    with pytest.raises(RuntimeError, match="boom"):
        with p.phase("encode"):
            raise RuntimeError("boom")
    # The aborted phase was still charged (once), and later phases are
    # unaffected: no leaked timer state, no double-charge.
    assert p.calls["encode"] == 1
    assert p.seconds["encode"] >= 0.0
    with p.phase("decode"):
        pass
    snap = p.snapshot()
    assert snap["decode"]["calls"] == 1
    assert snap["encode"]["calls"] == 1
    assert abs(p.total_seconds() - (p.seconds["encode"] + p.seconds["decode"])) < 1e-9


# -- tracestats spans / telemetry ----------------------------------------
def test_span_summary_view():
    from repro.experiments.tracestats import span_summary

    records = _trace_records() + [
        {"kind": "span", "name": "run", "t": 0.0, "dt": 0.5, "depth": 0},
        {"kind": "span", "name": "collect", "t": 0.4, "dt": 0.1, "depth": 1},
        {"kind": "span", "name": "run", "t": 0.6, "dt": 0.3, "depth": 0},
    ]
    table = span_summary(records)
    assert list(table) == ["collect", "run"]
    assert table["run"]["calls"] == 2
    assert table["run"]["seconds"] == pytest.approx(0.8)
    assert table["run"]["mean"] == pytest.approx(0.4)
    assert table["run"]["max"] == pytest.approx(0.5)
    assert table["collect"]["max_depth"] == 1
    assert trace_summary(records)["spans"]["run"]["calls"] == 2


def test_tracestats_cli_spans_and_telemetry(tmp_path, capsys):
    from repro.obs.telemetry import write_telemetry

    path = tmp_path / "t.jsonl"
    records = _trace_records() + [
        {"kind": "span", "name": "run", "t": 0.0, "dt": 0.5, "depth": 0},
    ]
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    telemetry = tmp_path / "telemetry.json"
    write_telemetry(
        telemetry, {"s": {"n_trials": 2, "counters": {"rounds": 9}}}
    )
    assert tracestats.main(
        ["--spans", "--telemetry", str(telemetry), str(path)]
    ) == 0
    out = capsys.readouterr().out
    assert "span" in out and "run" in out
    assert f"OK {telemetry}" in out and "trials=2" in out
    # --telemetry alone (no traces) is a valid invocation...
    assert tracestats.main(["--telemetry", str(telemetry)]) == 0
    capsys.readouterr()
    # ...and an invalid telemetry file exits 1.
    telemetry.write_text('{"format": "wrong"}')
    assert tracestats.main(["--telemetry", str(telemetry)]) == 1
    assert "INVALID" in capsys.readouterr().err
