"""Which program functions the traced run wraps, and the per-layer metrics
derived from their spans.

Every name in ``PER_LAYER`` is printed on every workload, as 0 where the
workload never reaches that layer, so one table covers all three.
"""

from __future__ import annotations

import math

import inputs
from treedecomp import apportionment, certificate, cli, decomposition, groupaction, labeling, perms, trees

CERTIFICATE_FUNCS = (
    "certificate_magnitude_check",
    "nonvanishing_by_sweep",
    "check_transposition_invariance",
    "collapse_chain",
    "squaring_chain_ends_constant",
)
DECOMPOSE_FUNCS = ("decompose_directed_knn", "decompose_k2n1", "decompose_knxnx")
APPORTION_FUNCS = ("check_apportionment", "build_block_unitary", "check_allones_identity")

# (name, unit, better)
PER_LAYER = (
    [
        ("trees.enumerate_free_trees.calls", "count", "lower"),
        ("trees.enumerate_free_trees.self_s", "s", "lower"),
        ("labeling.find_beta.calls", "count", "lower"),
        ("labeling.find_beta.self_s", "s", "lower"),
        ("labeling.find_beta.p50_ms", "ms", "lower"),
        ("labeling.find_beta.max_ms", "ms", "lower"),
        ("labeling.find_beta.found_ratio", "ratio", "higher"),
        ("labeling.phi_set.calls", "count", "lower"),
        ("labeling.phi_set.self_s", "s", "lower"),
        ("labeling.phi_set.hit_ratio", "ratio", "higher"),
    ]
    + [(f"certificate.{f}.self_s", "s", "lower") for f in CERTIFICATE_FUNCS]
    + [(f"decomposition.{f}.self_s", "s", "lower") for f in DECOMPOSE_FUNCS]
    + [
        ("decomposition.verify_partition.calls", "count", "lower"),
        ("decomposition.verify_partition.self_s", "s", "lower"),
        ("decomposition.verify_partition.edges_per_s", "1/s", "higher"),
        ("decomposition.edges_verified", "count", "lower"),
        ("groupaction.sigma_from_labeled_tree.self_s", "s", "lower"),
        ("groupaction.closure.self_s", "s", "lower"),
        ("perms.compose.calls", "count", "lower"),
    ]
    + [(f"apportionment.{f}.self_s", "s", "lower") for f in APPORTION_FUNCS]
    + [
        ("apportionment.flops_computed", "flop", "lower"),
        ("apportionment.bytes_computed", "B", "lower"),
        ("cli.run_campaign.self_s", "s", "lower"),
    ]
    + [(f"cli.check.{c}.busy_s", "s", "lower") for c in inputs.CAMPAIGN_CHECKS]
    + [
        ("trace.untraced_run_s", "s", "lower"),
        ("trace.traced_run_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def _tree_arg(args, kwargs, key="t"):
    return args[0] if args else kwargs[key]


def _count_found(rec, args, kwargs, result):
    rec.count("find_beta.found", bool(result))


def _count_phi(rec, args, kwargs, result):
    rec.count("phi_set.found", len(result))
    rec.count("phi_set.scanned", math.factorial(_tree_arg(args, kwargs).n))


def _count_edges(rec, args, kwargs, result):
    rec.count("edges_verified", sum(len(c) for c in _tree_arg(args, kwargs, "d").copies))


# Computed, not measured: a dense complex N x N product is 8 N^3 real flops
# and reads two and writes one matrix of 16 N^2 bytes. check_apportionment
# makes four products at N = n^2 (U (I x P), that times I x A, times Q*,
# and U U* for the residual); check_allones_identity makes 3n at N = n.
def _count_apportion(rec, args, kwargs, result):
    size = _tree_arg(args, kwargs).n ** 2
    rec.count("apportion.flops", 4 * 8 * size**3)
    rec.count("apportion.bytes", 4 * 3 * 16 * size**2)


def _count_allones(rec, args, kwargs, result):
    n = _tree_arg(args, kwargs).n
    rec.count("apportion.flops", 3 * n * 8 * n**3)
    rec.count("apportion.bytes", 3 * n * 3 * 16 * n**2)


def targets():
    """(module, attribute, eager, observe) for every wrapped function."""
    out = [
        (trees, "enumerate_free_trees", True, None),
        (labeling, "find_beta", False, _count_found),
        (labeling, "phi_set", False, _count_phi),
        (decomposition, "verify_partition", False, _count_edges),
        (groupaction, "sigma_from_labeled_tree", False, None),
        (groupaction, "closure", False, None),
        (perms, "compose", False, None),
        (apportionment, "check_apportionment", False, _count_apportion),
        (apportionment, "build_block_unitary", False, None),
        (apportionment, "check_allones_identity", False, _count_allones),
        (cli, "run_campaign", False, None),
    ]
    out += [(certificate, f, False, None) for f in CERTIFICATE_FUNCS]
    out += [(decomposition, f, False, None) for f in DECOMPOSE_FUNCS]
    return out


def per_layer_metrics(rec, records, untraced_run_s: float, traced_run_s: float) -> dict:
    """Every PER_LAYER metric from one traced set-up plus one traced pass."""
    layers = rec.layers()
    c = rec.counters
    values: dict[str, float] = {}
    for name, st in layers.items():
        values[f"{name}.calls"] = st.calls
        values[f"{name}.self_s"] = st.self_s
    beta = layers.get("labeling.find_beta")
    if beta is not None:
        values["labeling.find_beta.p50_ms"] = beta.p50_ms()
        values["labeling.find_beta.max_ms"] = beta.max_ms()
        values["labeling.find_beta.found_ratio"] = c["find_beta.found"] / beta.calls
    if c.get("phi_set.scanned"):
        values["labeling.phi_set.hit_ratio"] = c["phi_set.found"] / c["phi_set.scanned"]
    verify = layers.get("decomposition.verify_partition")
    if verify is not None:
        values["decomposition.verify_partition.edges_per_s"] = c["edges_verified"] / verify.total_s
        values["decomposition.edges_verified"] = c["edges_verified"]
    values["apportionment.flops_computed"] = c.get("apportion.flops", 0)
    values["apportionment.bytes_computed"] = c.get("apportion.bytes", 0)
    for check in inputs.CAMPAIGN_CHECKS:
        values[f"cli.check.{check}.busy_s"] = (
            sum(r["checks"][check]["runtime_ms"] for r in records if check in r["checks"]) / 1e3
        )
    values["trace.untraced_run_s"] = untraced_run_s
    values["trace.traced_run_s"] = traced_run_s
    values["trace.overhead_s"] = traced_run_s - untraced_run_s
    return {
        name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in PER_LAYER
    }
