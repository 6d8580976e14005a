"""End-to-end and per-layer benchmark of the LTNC reproduction.

Run from the repository root::

    python3 ltncbench/run.py --workload ltnc_deep --seed 0 --seconds 40 --trace 0

``--trace 0`` times the workload with no instrumentation and prints the
end-to-end metrics; ``--trace 1`` runs the same inputs once untraced and
once with :mod:`spans` hooks around the program's public calls, and
prints the per-layer metrics.  Metric names, units and directions are
the ones ``BENCHMARK.json`` lists; ``targets.json`` names the
end-to-end metric and workload each per-layer metric should move.

Every run checks the program's outputs and counts a trial as failed
when it raises, leaves a node incomplete, decodes wrong bytes, or
fails a determinism check (repeats of one input vs its first run,
traced vs untraced fingerprint, 2-worker vs serial fleet JSON, and for
seeds listed in ``fingerprints.json`` the recorded fingerprint).
``--record`` stores the current fingerprint for the given seed instead
of checking it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it stamp the host environment and print each metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
DEFAULT_SEED = 0

# Why each workload exists is recorded in BENCHMARK.json.  The paper
# point (N=1000, k=2048) runs for more than 20 minutes, so each workload
# pushes one of its axes instead: k on the scalar round path (N below
# the batched planner's 256-node threshold), N on the batched planner
# with a small k, and a fleet of small trials that runs every scheme and
# the channel fault paths.
#
# A run draws ``inputs`` distinct inputs from its seed and cycles over
# them until its time is used, so every input is timed several times.
# Repeats of one input do identical work, and host contention only adds
# time, so an input's time is its fastest repeat; the run reports the
# mean over inputs, which averages out how much work each seed's trials
# happen to need (the session count of one ltnc_wide trial varies by
# about 15% between seeds).
WORKLOADS: dict[str, dict] = {
    "ltnc_deep": {
        "kind": "trial", "scheme": "ltnc", "n_nodes": 16, "k": 256,
        "payload_nbytes": 1024, "inputs": 2, "setup_reps": 7,
    },
    "ltnc_wide": {
        "kind": "trial", "scheme": "ltnc", "n_nodes": 256, "k": 16,
        "payload_nbytes": 1024, "inputs": 16, "setup_reps": 5,
    },
    "fleet_mixed": {
        # Eight trials per spec is the smallest grid the default sharding
        # (four checkpointed shards per spec) dispatches to both workers.
        "kind": "fleet", "trials": 8, "workers": 2, "inputs": 2,
        "setup_reps": 5,
        "specs": [
            {"name": "ltnc", "scheme": "ltnc", "n_nodes": 16, "k": 32},
            {"name": "rlnc", "scheme": "rlnc", "n_nodes": 16, "k": 256},
            {"name": "wc", "scheme": "wc", "n_nodes": 16, "k": 32},
            {"name": "ltnc_faulty", "scheme": "ltnc", "n_nodes": 16, "k": 32,
             "loss_rate": 0.1, "duplicate_rate": 0.05, "churn_rate": 0.02},
        ],
    },
}

perf = time.perf_counter


def _sha(obj: object) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def environment() -> dict[str, object]:
    """Host stamp: results from different stamps are not comparable."""
    import numpy as np

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env: dict[str, object] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "cpu_model": cpu_model,
    }
    env["fingerprint"] = _sha(env)[:16]
    return env


def _cpu_now() -> float:
    """CPU seconds of this process plus every reaped child."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _children_cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (Linux KiB)."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


def make_inputs(params: dict, seed: int, unit: int) -> dict[str, object]:
    """Inputs of one measured unit, derived from the benchmark seed only."""
    import numpy as np

    rng = np.random.default_rng([seed, unit])
    inputs: dict[str, object] = {"seed": int(rng.integers(2**62))}
    if params["kind"] == "trial":
        content = rng.integers(
            0, 256, size=(params["k"], params["payload_nbytes"]), dtype=np.uint8
        )
        inputs["content"] = content
        inputs["expected"] = content.copy()
    return inputs


class Tally:
    """Trials attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, n: int, failed: int = 0, reason: str = "") -> None:
        self.attempted += n
        self.failed += failed
        if failed and reason:
            self.reasons.append(reason)

    def record_exception(self, n: int, where: str) -> None:
        self.add(n, n, f"{where}: {traceback.format_exc(limit=4)}")


# ----------------------------------------------------------------------
# Single-trial workloads
# ----------------------------------------------------------------------
def _build_sim(params: dict, inputs: dict):
    from repro.gossip import EpidemicSimulator, Feedback

    return EpidemicSimulator(
        params["scheme"],
        params["n_nodes"],
        params["k"],
        content=inputs["content"],
        feedback=Feedback.BINARY,
        seed=inputs["seed"],
    )


def trial_fingerprint(result, content) -> dict[str, object]:
    """What a trial did, independent of timing."""
    return {
        "rounds": result.rounds,
        "sessions": result.sessions,
        "aborted": result.aborted,
        "data_transfers": result.data_transfers,
        "useful_transfers": result.useful_transfers,
        "redundant_transfers": result.redundant_transfers,
        "lost_transfers": result.lost_transfers,
        "duplicated_transfers": result.duplicated_transfers,
        "churn_events": result.churn_events,
        "completion_rounds": _sha(sorted(result.completion_rounds.items())),
        "recode_ops": result.recode_ops.total(),
        "decode_ops": result.decode_ops.total(),
        "ops": _sha({"recode": result.recode_ops.counts,
                     "decode": result.decode_ops.counts}),
        "bp_edges": result.decode_ops.get("bp_edge"),
        "content": hashlib.sha256(content.tobytes()).hexdigest(),
    }


def check_trial(sim, result, expected) -> list[str]:
    """Reasons the finished trial is wrong (empty when it is right)."""
    import numpy as np

    problems = []
    incomplete = [i for i, node in enumerate(sim.nodes) if not node.is_complete()]
    if incomplete or not result.all_complete:
        problems.append(f"{len(incomplete)} node(s) incomplete")
    wrong = [
        i for i, node in enumerate(sim.nodes)
        if i not in incomplete
        and not np.array_equal(node.decoded_content(), expected)
    ]
    if wrong:
        problems.append(f"{len(wrong)} node(s) decoded wrong bytes")
    return problems


def run_trial_unit(params: dict, inputs: dict, reps: int,
                   tracer=None) -> dict[str, object]:
    """Build the simulator *reps* times (timed), run the last build.

    With a *tracer*, its span hooks are installed for the builds and the
    run.
    """
    setups = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for _ in range(reps):
            sim = None  # free the previous build before timing the next
            gc.collect()
            t0 = perf()
            sim = _build_sim(params, inputs)
            setups.append(perf() - t0)
        gc.collect()
        c0 = _cpu_now()
        t0 = perf()
        result = sim.run()
        wall = perf() - t0
        cpu = _cpu_now() - c0
    return {
        "setups": setups,
        "wall": wall,
        "cpu": cpu,
        "sim": sim,
        "result": result,
        "fingerprint": trial_fingerprint(result, inputs["content"]),
    }


# ----------------------------------------------------------------------
# Fleet workload
# ----------------------------------------------------------------------
def _fleet_runner(workdir: Path, workers: int):
    from repro.scenarios import FleetRunner

    shutil.rmtree(workdir, ignore_errors=True)
    return FleetRunner(
        n_workers=workers,
        checkpoint_dir=workdir / "checkpoints",
        telemetry_dir=workdir / "telemetry",
    )


#: Per-trial record fields the fleet fingerprint pins.  Restricted to
#: behaviour, so a new report field does not read as a behaviour change.
TRIAL_FIELDS = (
    "rounds", "sessions", "aborted", "data_transfers", "useful_transfers",
    "redundant_transfers", "lost_transfers", "duplicated_transfers",
    "churn_events", "completed", "average_completion_round",
)


def fleet_fingerprint(aggregates, telemetry) -> dict[str, object]:
    """What a fleet grid did: pinned trial fields and OpCounter totals."""
    ops = {
        f"{name}:{counter}": value
        for name in sorted(telemetry or {})
        for counter, value in telemetry[name].get("counters", {}).items()
        if counter.startswith("ops:")
    }
    records = [
        {"scenario": name, "trial_index": t["trial_index"], "seed": t["seed"],
         **{f: t.get(f) for f in TRIAL_FIELDS}}
        for name in sorted(aggregates)
        for t in aggregates[name].trials
    ]

    def total(field: str) -> int:
        return sum(r[field] for r in records)

    return {
        "trials": len(records),
        "rounds": total("rounds"),
        "sessions": total("sessions"),
        "aborted": total("aborted"),
        "useful_transfers": total("useful_transfers"),
        "lost_transfers": total("lost_transfers"),
        "records": _sha(records),
        "recode_ops": sum(v for k, v in ops.items() if ":ops:recode:" in k),
        "decode_ops": sum(v for k, v in ops.items() if ":ops:decode:" in k),
        "bp_edges": sum(v for k, v in ops.items() if k.endswith(":ops:decode:bp_edge")),
        "ops": _sha(ops),
    }


def aggregate_json(aggregates) -> str:
    return "\n".join(aggregates[name].to_json() for name in sorted(aggregates))


def check_fleet(aggregates, n_expected: int) -> list[int]:
    """Trial indices (flattened) that did not complete every node."""
    trials = [t for name in sorted(aggregates) for t in aggregates[name].trials]
    bad = [i for i, t in enumerate(trials) if t.get("completed_fraction") != 1.0]
    bad += list(range(len(trials), n_expected))
    return bad


def _fleet_setup(params: dict, workdir: Path, master_seed: int):
    """Spec and runner construction, plus one build per spec (timed)."""
    from repro.scenarios import ScenarioSpec
    from repro.scenarios.runner import trial_seed

    t0 = perf()
    specs = [ScenarioSpec(**d) for d in params["specs"]]
    runner = _fleet_runner(workdir, params["workers"])
    for spec in specs:
        spec.build(trial_seed(master_seed, spec.name, 0))
    return perf() - t0, specs, runner


def run_fleet_unit(params: dict, inputs: dict, reps: int, workdir: Path,
                   tracer=None) -> dict[str, object]:
    """Set up *reps* times (timed), then run the grid once.

    With a *tracer*, the grid runs serially with its span hooks
    installed, so every trial executes in this process.
    """
    setups = []
    for _ in range(reps):
        gc.collect()
        elapsed, specs, runner = _fleet_setup(params, workdir, inputs["seed"])
        setups.append(elapsed)
    if tracer is not None:
        runner = _fleet_runner(workdir, 1)
    gc.collect()
    c0 = _cpu_now()
    k0 = _children_cpu()
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = perf()
        aggregates = runner.run_grid(specs, params["trials"], inputs["seed"])
        wall = perf() - t0
    return {
        "setups": setups,
        "wall": wall,
        "cpu": _cpu_now() - c0,
        "children_cpu": _children_cpu() - k0,
        "aggregates": aggregates,
        "json": aggregate_json(aggregates),
        "fingerprint": fleet_fingerprint(aggregates, runner.last_telemetry),
    }


# ----------------------------------------------------------------------
# Measurement loops
# ----------------------------------------------------------------------
def _n_trials(params: dict) -> int:
    return params["trials"] * len(params["specs"]) if params["kind"] == "fleet" else 1


def _check_unit(params, unit, inputs, tally, recorded, where,
                against: str = "the recorded one") -> None:
    """Output checks of one untraced unit; adds its trials to *tally*.

    A *recorded* fingerprint (named *against* in the failure reason)
    must equal the unit's.
    """
    n = _n_trials(params)
    if params["kind"] == "trial":
        problems = check_trial(unit["sim"], unit["result"], inputs["expected"])
        bad = 1 if problems else 0
    else:
        bad_idx = check_fleet(unit["aggregates"], n)
        problems = [f"{len(bad_idx)} trial(s) left nodes incomplete"] if bad_idx else []
        bad = len(bad_idx)
    if recorded is not None and unit["fingerprint"] != recorded:
        problems.append(
            f"fingerprint differs from {against}: "
            + json.dumps(_diff(recorded, unit["fingerprint"]), sort_keys=True)
        )
        bad = n
    tally.add(n, bad, f"{where}: " + "; ".join(problems))


def _diff(a: dict, b: dict) -> dict:
    return {
        k: [a.get(k), b.get(k)] for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)
    }


def measure(name: str, params: dict, seed: int, seconds: float,
            tally: Tally, recorded: dict | None, workdir: Path) -> dict:
    """Cycle over the run's inputs until *seconds* are used.

    Every input runs at least once.  Each input's wall and CPU time is
    its fastest repeat; a repeat whose fingerprint differs from the
    input's first run is a failure.
    """
    n_inputs = params.get("inputs", 1)
    all_inputs = [make_inputs(params, seed, i) for i in range(n_inputs)]
    setups: list[float] = []
    walls = [float("inf")] * n_inputs
    cpus = [float("inf")] * n_inputs
    repeats = [0] * n_inputs
    fingerprints: list[dict] = []
    start = perf()
    units = 0
    while True:
        i = units % n_inputs
        inputs = all_inputs[i]
        where = f"{name} input {i} repeat {repeats[i]}"
        try:
            if params["kind"] == "trial":
                unit = run_trial_unit(params, inputs, params["setup_reps"])
            else:
                unit = run_fleet_unit(params, inputs, params["setup_reps"], workdir)
        except Exception:
            tally.record_exception(_n_trials(params), where)
            return {"fingerprints": fingerprints, "metrics": {}}
        if repeats[i] == 0:
            _check_unit(params, unit, inputs, tally,
                        recorded if i == 0 else None, where)
            fingerprints.append(unit["fingerprint"])
        else:
            _check_unit(params, unit, inputs, tally, fingerprints[i], where,
                        "the input's first run")
        setups.extend(unit["setups"])
        walls[i] = min(walls[i], unit["wall"])
        cpus[i] = min(cpus[i], unit["cpu"])
        repeats[i] += 1
        unit = None  # free the finished network before the next build
        units += 1
        elapsed = perf() - start
        # Stop when one more unit of average length would overrun.
        if units >= n_inputs and elapsed + elapsed / units > seconds:
            break
    sessions = [fp["sessions"] for fp in fingerprints]
    return {
        "fingerprints": fingerprints,
        "repeats": repeats,
        "walls": walls,
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(walls),
            "cpu_s": statistics.fmean(cpus),
            "sessions_per_s": sum(sessions) / sum(walls),
            "peak_rss_mb": _peak_rss_mb(),
        },
    }


def layer_metrics(tr, untraced: dict, traced_s: float, reference_s: float,
                  fp: dict, parallel_eff: float) -> dict:
    """Per-layer metrics from a traced unit and its untraced twin.

    ``_us``/``_ms`` metrics are self time per call (time inside nested
    hooked calls excluded), except ``scenarios.build_ms`` and the trial
    times, which are inclusive.  ``traced_s`` is the traced unit's wall
    time and ``reference_s`` its untraced counterpart.
    """
    rounds = fp["rounds"]
    sessions = fp["sessions"]
    # In a traced (serial) grid every trial is one build then one run.
    builds = tr.durations.get("scenarios.build", [])
    trial_times = [
        b + r for b, r in zip(builds, tr.durations.get("gossip.run", []))
    ]

    def add(*parts):
        return None if any(p is None for p in parts) else sum(parts)

    return {
        "core.make_packet_calls": tr.calls("core.make_packet"),
        "core.make_packet_us": tr.self_us_per_call("core.make_packet"),
        "core.make_packet_s": tr.self_s("core.make_packet"),
        "core.header_check_calls": tr.calls("core.header_check"),
        "core.header_check_us": tr.self_us_per_call("core.header_check"),
        "core.receive_calls": tr.calls("core.receive"),
        "core.receive_us": tr.self_us_per_call("core.receive"),
        "core.self_s": tr.layer_self_s("core"),
        "lt.receive_us": tr.self_us_per_call("lt.receive"),
        "lt.receive_s": tr.self_s("lt.receive"),
        "lt.bp_edges": fp["bp_edges"],
        "costmodel.add_calls": tr.calls("costmodel.add"),
        "costmodel.add_s": tr.self_s("costmodel.add"),
        "costmodel.recode_ops": fp["recode_ops"],
        "costmodel.decode_ops": fp["decode_ops"],
        "gossip.rounds": rounds,
        "gossip.sessions": sessions,
        "gossip.aborted_frac": fp["aborted"] / sessions if sessions else 0.0,
        "gossip.useful_frac": fp["useful_transfers"] / sessions if sessions else 0.0,
        "gossip.round_ms": 1e3 * untraced["wall"] / rounds if rounds else 0.0,
        "gossip.session_us": 1e6 * untraced["wall"] / sessions if sessions else 0.0,
        "gossip.self_s": add(tr.self_s("gossip.run"), tr.self_s("gossip.init")),
        "gossip.sampler_calls": tr.calls("gossip.sampler"),
        "gossip.sampler_s": tr.self_s("gossip.sampler"),
        "gossip.channel_calls": tr.calls("gossip.channel"),
        "gossip.channel_s": tr.self_s("gossip.channel"),
        "rlnc.make_packet_us": tr.self_us_per_call("rlnc.make_packet"),
        "rlnc.header_check_us": tr.self_us_per_call("rlnc.header_check"),
        "rlnc.receive_us": tr.self_us_per_call("rlnc.receive"),
        "rlnc.self_s": tr.layer_self_s("rlnc"),
        "gf2.reduce_calls": tr.calls("gf2.reduce"),
        "gf2.reduce_us": tr.self_us_per_call("gf2.reduce"),
        "gf2.insert_calls": tr.calls("gf2.insert"),
        "gf2.insert_us": tr.self_us_per_call("gf2.insert"),
        "gf2.self_s": tr.layer_self_s("gf2"),
        "wc.make_packet_us": tr.self_us_per_call("wc.make_packet"),
        "wc.receive_us": tr.self_us_per_call("wc.receive"),
        "wc.self_s": tr.layer_self_s("wc"),
        "scenarios.build_ms": (
            None if "scenarios.build" in tr.missing
            else 1e3 * statistics.fmean(builds) if builds else 0.0
        ),
        "scenarios.trial_s_p50": statistics.median(trial_times) if trial_times else 0.0,
        "scenarios.trial_s_max": max(trial_times) if trial_times else 0.0,
        "scenarios.checkpoint_writes": tr.calls("scenarios.checkpoint"),
        "scenarios.checkpoint_s": tr.self_s("scenarios.checkpoint"),
        "scenarios.parallel_eff": parallel_eff,
        "scenarios.self_s": tr.layer_self_s("scenarios"),
        "trace.wall_s": traced_s,
        "trace.overhead_pct": 100.0 * (traced_s / reference_s - 1.0),
        "trace.residual_s": traced_s - tr.total_self_s(),
    }


def measure_traced(name: str, params: dict, seed: int, tally: Tally,
                   recorded: dict | None, workdir: Path, tracer) -> dict:
    """One untraced and one traced unit on the same inputs."""
    inputs = make_inputs(params, seed, 0)
    n = _n_trials(params)
    fleet = params["kind"] == "fleet"
    run_unit = run_fleet_unit if fleet else run_trial_unit
    args = (params, inputs, 1, workdir) if fleet else (params, inputs, 1)
    try:
        untraced = run_unit(*args)
    except Exception:
        tally.record_exception(n, f"{name} untraced")
        return {}
    _check_unit(params, untraced, inputs, tally, recorded, f"{name} untraced")
    if fleet:
        # The traced grid runs serially, so its untraced reference is the
        # CPU time of the 2-worker run (parent plus workers).
        reference_s = untraced["cpu"]
        parallel_eff = untraced["children_cpu"] / (params["workers"] * untraced["wall"])
    else:
        reference_s = untraced["setups"][-1] + untraced["wall"]
        parallel_eff = 0.0
    # Release the untraced network before the traced one is built.
    untraced.pop("sim", None)
    untraced.pop("result", None)
    try:
        traced = run_unit(*args, tracer=tracer)
    except Exception:
        tally.record_exception(n, f"{name} traced")
        return {}
    problems = []
    if fleet:
        traced_s = traced["wall"]
        bad = check_fleet(traced["aggregates"], n)
        if bad:
            problems.append(f"{len(bad)} traced trial(s) left nodes incomplete")
        if traced["json"] != untraced["json"]:
            problems.append("traced serial and untraced 2-worker JSON differ")
    else:
        traced_s = traced["setups"][-1] + traced["wall"]
        problems += check_trial(traced["sim"], traced["result"], inputs["expected"])
    if traced["fingerprint"] != untraced["fingerprint"]:
        problems.append(
            "traced fingerprint differs from untraced: "
            + json.dumps(
                _diff(untraced["fingerprint"], traced["fingerprint"]), sort_keys=True
            )
        )
    tally.add(n, n if problems else 0, f"{name} traced: " + "; ".join(problems))
    return layer_metrics(tracer, untraced, traced_s, reference_s,
                         untraced["fingerprint"], parallel_eff)


# ----------------------------------------------------------------------
def load_benchmark() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for each of ``end_to_end`` and ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        group: {m["name"]: m["unit"] for m in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def load_fingerprints() -> dict[str, dict[str, dict]]:
    try:
        return json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def record_fingerprint(name: str, seed: int, fingerprint: dict) -> None:
    table = load_fingerprints()
    table.setdefault(name, {})[str(seed)] = fingerprint
    tmp = FINGERPRINTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, FINGERPRINTS)


def run_workload(name: str, params: dict, seed: int, seconds: float, trace: bool,
                 recorded: dict | None, workdir: Path) -> tuple[Tally, dict, list]:
    """Measure one workload; returns (tally, raw metrics, fingerprints)."""
    from spans import SpanTracer

    tally = Tally()
    try:
        if trace:
            metrics = measure_traced(name, params, seed, tally, recorded, workdir,
                                     SpanTracer())
            fingerprints = []
        else:
            out = measure(name, params, seed, seconds, tally, recorded, workdir)
            metrics, fingerprints = out["metrics"], out["fingerprints"]
            if metrics:
                print(f"# {len(out['walls'])} input(s), "
                      f"{min(out['repeats'])}-{max(out['repeats'])} repeat(s) "
                      "each; fastest wall per input: "
                      + " ".join(f"{w:.4f}" for w in out["walls"]))
                metrics["pass_frac"] = 1.0 - tally.failed / max(tally.attempted, 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # absent, or another run still uses it
    return tally, metrics, fingerprints


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's fingerprint instead of checking it")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    units = load_benchmark()
    group = "per_layer" if args.trace else "end_to_end"
    recorded = None
    if not args.record:
        recorded = load_fingerprints().get(args.workload, {}).get(str(args.seed))
    env = environment()
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    tally, metrics, fingerprints = run_workload(
        args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace), recorded, workdir,
    )
    if args.record and fingerprints and tally.failed == 0:
        record_fingerprint(args.workload, args.seed, fingerprints[0])
    for reason in tally.reasons:
        print(f"FAIL {reason}", file=sys.stderr)
    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"attempted {tally.attempted} failed {tally.failed} "
          f"fail_frac {tally.failed / max(tally.attempted, 1):.4f}")
    out = {}
    for metric, unit in units[group].items():
        value = metrics.get(metric)
        out[metric] = {"value": value, "unit": unit}
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"# {metric:<28} {shown:>14} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
