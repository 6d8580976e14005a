"""The planned round executor is pinned by an exact golden grid.

The simulator has one round executor (the ``ROUND_PLAN_VERSION`` v1
planner) and one form of each LTNC node kernel.  Before the scalar
reference loop and the reference kernels were deleted, every config
below was run through both the reference path and the planned path,
they agreed, and the sha256 of each run's ``to_dict()`` JSON was
recorded in ``tests/fixtures/round_golden.json``.  ``to_dict`` embeds
the recode and decode OpCounter snapshots, so the golden pins the cost
model, not only the dissemination metrics.

The grid: LTNC under feedback NONE/BINARY/FULL x loss {0, 0.1} x
duplicate {0, 0.15} x churn {0, 0.05} x two seeds; the other built-in
schemes under lossy, churning channels with and without duplication
(NONE feedback exercises the hoisted ``delivers_batch`` draws); and the
``large_overlay`` quick preset.  A further test pins worker-split
invariance at a 1,024-node overlay.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

from repro.experiments.scale import PROFILES
from repro.gossip.channel import ChannelModel
from repro.gossip.simulator import EpidemicSimulator, Feedback
from repro.scenarios import TrialRunner, get_preset

QUICK = PROFILES["quick"]
GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "round_golden.json").read_text()
)["hashes"]


def _digest(result) -> str:
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _grid():
    """``(key, simulator kwargs)`` for every simulator config."""
    for feedback, loss, dup, churn, seed in itertools.product(
        ("none", "binary", "full"), (0.0, 0.1), (0.0, 0.15), (0.0, 0.05), (0, 1)
    ):
        yield (
            f"ltnc/{feedback}/loss={loss}/dup={dup}/churn={churn}/seed={seed}",
            dict(scheme="ltnc", feedback=feedback, loss=loss, dup=dup,
                 churn=churn, seed=seed, max_rounds=300),
        )
    for scheme, feedback, dup in itertools.product(
        ("wc", "rlnc", "rndlt", "sparse_rlnc"), ("none", "binary"), (0.0, 0.15)
    ):
        yield (
            f"{scheme}/{feedback}/loss=0.1/dup={dup}/churn=0.05/seed=0",
            dict(scheme=scheme, feedback=feedback, loss=0.1, dup=dup,
                 churn=0.05, seed=0, max_rounds=100),
        )


def test_round_executor_matches_golden_grid():
    keys = [key for key, _ in _grid()]
    assert set(keys) | {"preset/large_overlay/quick/seed=2010"} == set(GOLDEN)
    mismatched = []
    for key, cfg in _grid():
        result = EpidemicSimulator(
            cfg["scheme"],
            n_nodes=20,
            k=16,
            feedback=Feedback(cfg["feedback"]),
            seed=cfg["seed"],
            max_rounds=cfg["max_rounds"],
            channel=ChannelModel(
                loss_rate=cfg["loss"],
                duplicate_rate=cfg["dup"],
                churn_rate=cfg["churn"],
            ),
        ).run()
        if _digest(result) != GOLDEN[key]:
            mismatched.append(key)
    assert not mismatched


def test_large_overlay_preset_matches_golden():
    result = get_preset("large_overlay", QUICK).run(seed=2010)
    assert _digest(result) == GOLDEN["preset/large_overlay/quick/seed=2010"]


def test_worker_split_invariance_at_scale_out_size():
    # N=1024 under the round planner, rounds bounded so the test stays
    # in CI budget; the aggregate (metrics, series, counter snapshots
    # for every trial) must not depend on the worker split.
    spec = get_preset("large_overlay", QUICK).with_(
        name="n1024", n_nodes=1024, max_rounds=12
    )
    aggs = []
    for workers in (1, 4):
        agg = TrialRunner(n_workers=workers).run_grid(
            [spec], 2, master_seed=2010
        )["n1024"]
        aggs.append(agg.to_json())
    assert aggs[0] == aggs[1]
