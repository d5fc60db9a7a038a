"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives
byte-identical inputs (``inputs_bytes``). The program under test receives
only these parent maps, labelings and configs.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

from treedecomp import trees

# The ROADMAP's pinned end-to-end campaign: all twelve checks, n in [1, 9],
# x in [1, 2], one worker process.
CAMPAIGN_CHECKS = (
    "beta", "graceful", "phi", "knn", "k2n1", "knxnx",
    "magnitude", "nonzero", "invariance", "composition", "allones", "apportion",
)
CAMPAIGN_N = (1, 9)
CAMPAIGN_X = (1, 2)
# Free trees per vertex count, n = 1..9 (OEIS A000055).
CAMPAIGN_RECORDS = 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47

LABEL_NS = (10,)
LABEL_ROUNDS = 40

DECOMPOSE_NS = (64, 100)
DECOMPOSE_XS = (1, 2, 4)
GROUP_NS = (32, 48)
APPORTION_NS = (24, 32, 40)


def campaign_config() -> dict:
    return {
        "checks": list(CAMPAIGN_CHECKS),
        "n": list(CAMPAIGN_N),
        "x": list(CAMPAIGN_X),
        "workers": 1,
    }


@dataclass(frozen=True)
class SearchInput:
    """One catalog tree under a random vertex relabeling."""

    n: int
    g: tuple[int, ...]
    code: str  # canonical code (hex) of the catalog tree it came from


def relabel(g, perm) -> tuple[int, ...]:
    """Parent map of perm . g . perm^-1: vertex v is renamed perm[v]."""
    h = [0] * len(g)
    for v, parent in enumerate(g):
        h[perm[v]] = perm[parent]
    return tuple(h)


def relabeled_catalog(seed: int, ns=LABEL_NS, rounds: int = LABEL_ROUNDS) -> list[SearchInput]:
    """Every free tree with n in ``ns``, ``rounds`` times, each time under a
    fresh seed-drawn relabeling, like the arbitrary trees a user passes to
    ``label find --tree``."""
    rng = random.Random(seed)
    catalog = [e for n in ns for e in trees.enumerate_free_trees(n)]
    out = []
    for _ in range(rounds):
        for entry in catalog:
            n = entry.tree.n
            perm = list(range(n))
            rng.shuffle(perm)
            out.append(SearchInput(n, relabel(entry.tree.g, perm), entry.canonical_code.hex()))
    return out


@dataclass(frozen=True)
class Caterpillar:
    """A random caterpillar and its closed-form beta-labeling."""

    n: int
    g: tuple[int, ...]
    sigma: tuple[int, ...]


def caterpillar(n: int, rng: random.Random) -> Caterpillar:
    """Spine s0..s(k-1) rooted at s0, legs hung on random spine vertices.

    Side A (even depth) is s0, legs(s1), s2, legs(s3), ... and gets labels
    0, 1, 2, ...; side B is legs(s0), s1, legs(s2), ... and gets n-1, n-2,
    .... Each edge joins consecutive positions of this snake, so the edge
    differences are n-1, n-2, ..., 1 and the labeling is graceful with the
    signed differences of a beta-labeling. Vertex ids are then shuffled.
    """
    if n < 4:
        raise ValueError(f"caterpillar needs n >= 4, got {n}")
    k = rng.randint(2, n // 2)
    legs: list[list[int]] = [[] for _ in range(k)]
    parent = list(range(k))  # spine vertices are 0..k-1
    parent[1:] = range(k - 1)
    for v in range(k, n):
        s = rng.randrange(k)
        legs[s].append(v)
        parent.append(s)
    side_a, side_b = [], []
    for s in range(k):
        if s % 2 == 0:
            side_a.append(s)
            side_b.extend(legs[s])
        else:
            side_a.extend(legs[s])
            side_b.append(s)
    label = [0] * n
    for i, v in enumerate(side_a):
        label[v] = i
    for i, v in enumerate(side_b):
        label[v] = n - 1 - i
    perm = list(range(n))
    rng.shuffle(perm)
    sigma = [0] * n
    for v in range(n):
        sigma[perm[v]] = label[v]
    return Caterpillar(n, relabel(parent, perm), tuple(sigma))


@dataclass(frozen=True)
class Construction:
    """One construction call: a decomposition, a group closure or an
    apportionment check, on a caterpillar with its labeling."""

    kind: str  # knn, k2n1, knxnx, group or apportion
    x: int
    tree: Caterpillar


def construct_plan(seed: int) -> list[Construction]:
    rng = random.Random(seed)
    plan = []
    for n in DECOMPOSE_NS:
        cat = caterpillar(n, rng)
        plan.append(Construction("knn", 1, cat))
        for kind in ("k2n1", "knxnx"):
            plan.extend(Construction(kind, x, cat) for x in DECOMPOSE_XS)
    plan.extend(Construction("group", 1, caterpillar(n, rng)) for n in GROUP_NS)
    plan.extend(Construction("apportion", 1, caterpillar(n, rng)) for n in APPORTION_NS)
    return plan


def inputs_bytes(workload: str, seed: int) -> bytes:
    """Canonical serialization of a workload's inputs, for reproducibility."""
    if workload == "campaign":
        obj = campaign_config()
    elif workload == "label-catalog":
        obj = [asdict(item) for item in relabeled_catalog(seed)]
    elif workload == "construct":
        obj = [asdict(item) for item in construct_plan(seed)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return json.dumps(obj, sort_keys=True).encode()
