"""Tests of the benchmark's input generators and span recorder.

Run from the checkout root: python3 -m pytest perfbench/tests
"""

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import inputs
import layers
import spans
from run import SpeedProbe, quantile, tail
from treedecomp import labeling, trees

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def _digest_in_subprocess(workload, seed, hashseed):
    code = (
        "import hashlib, inputs; "
        f"print(hashlib.sha256(inputs.inputs_bytes({workload!r}, {seed})).hexdigest())"
    )
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(HERE.parent), str(ROOT / "src")]),
        PYTHONHASHSEED=str(hashseed),
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return out.stdout.strip()


@pytest.mark.parametrize("workload", ["campaign", "label-catalog", "construct"])
def test_same_seed_gives_identical_bytes(workload):
    here = hashlib.sha256(inputs.inputs_bytes(workload, 7)).hexdigest()
    assert _digest_in_subprocess(workload, 7, 1) == here
    assert _digest_in_subprocess(workload, 7, 2) == here


@pytest.mark.parametrize("workload", ["label-catalog", "construct"])
def test_seeds_differ(workload):
    assert inputs.inputs_bytes(workload, 1) != inputs.inputs_bytes(workload, 2)


def _is_caterpillar(t):
    """Removing every leaf leaves a path."""
    adj = t.adjacency()
    core = [v for v in range(t.n) if len(adj[v]) > 1]
    degrees = [sum(1 for u in adj[v] if len(adj[u]) > 1) for v in core]
    return all(d <= 2 for d in degrees)


@pytest.mark.parametrize("seed", range(5))
def test_caterpillar_snake_labelings_pass_verify_beta(seed):
    rng = random.Random(seed)
    for n in list(range(4, 41)) + [64, 100]:
        cat = inputs.caterpillar(n, rng)
        t = trees.from_parent_map(cat.n, cat.g)
        assert _is_caterpillar(t)
        assert isinstance(labeling.verify_beta(t, cat.sigma), labeling.Labeling)


def test_construct_plan_labelings_pass_verify_beta():
    for c in inputs.construct_plan(3):
        t = trees.from_parent_map(c.tree.n, c.tree.g)
        assert isinstance(labeling.verify_beta(t, c.tree.sigma), labeling.Labeling)


def test_relabeled_catalog_keeps_canonical_codes():
    items = inputs.relabeled_catalog(11, ns=(7, 8, 9, 10), rounds=3)
    expected = sum(1 for n in (7, 8, 9, 10) for _ in trees.enumerate_free_trees(n))
    assert len(items) == 3 * expected
    for item in items:
        assert trees.canonical_code(trees.from_parent_map(item.n, item.g)).hex() == item.code
    assert any(item.g != trees.tree_from_level_sequence(bytes.fromhex(item.code)).g
               for item in items)


def test_campaign_record_count_matches_catalog():
    n_lo, n_hi = inputs.CAMPAIGN_N
    count = sum(1 for n in range(n_lo, n_hi + 1) for _ in trees.enumerate_free_trees(n))
    assert count == inputs.CAMPAIGN_RECORDS


def test_quantiles_interpolate_across_gaps():
    values = [float(i) for i in range(100)]
    assert quantile(values, 0.5) == pytest.approx(49.5, abs=0.01)
    value, pct = tail(values)
    assert pct == pytest.approx(90.0) and value == pytest.approx(89.6, abs=0.3)
    gap = [1.0] * 47 + [5.0] + [9.0] * 47
    assert 3.0 < quantile(gap, 0.5) < 7.0
    assert quantile(gap, 0.5) == pytest.approx(5.0, abs=0.01)  # symmetric


def test_recorder_self_time_excludes_children():
    mod = types.ModuleType("fake.mod")

    def inner(t):
        return t

    def outer(t):
        for _ in range(3):
            mod.inner(t)
        return t

    mod.inner, mod.outer = inner, outer
    rec = spans.Recorder()
    with rec.installed([(mod, "inner", False, None), (mod, "outer", False, None)]):
        mod.outer(1)
    assert mod.inner is inner and mod.outer is outer
    stats = rec.layers()
    assert stats["mod.inner"].calls == 3 and stats["mod.outer"].calls == 1
    assert [s.parent for s in rec.spans] == [-1, 0, 0, 0]
    assert stats["mod.outer"].self_s == pytest.approx(
        stats["mod.outer"].total_s - stats["mod.inner"].total_s
    )


def test_benchmark_json_lists_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        layers.PER_LAYER
    )


def test_speed_probe_samples_uniformly_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        start, wall = probe.clock(), time.perf_counter()
        while time.perf_counter() - wall < 0.5:
            pass
        work = probe.clock() - start
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(probe.samples) >= 6  # one at each end, about 10 from the timer
    assert probe.spent == pytest.approx(sum(probe.samples))
    assert work < 0.5 + 1e-3 and probe.scale() > 0
