"""The benchmark workloads: set-up, one timed pass, and its output checks.

Each workload's ``prepare(seed, workdir)`` builds the inputs (it is timed as
part of ``setup_s``); ``run_pass(prepared, expected, clock)`` runs every item
once, timed with ``clock``, and checks each output outside the item's timed
interval (``expected``: see ``_run_items``). The checks call the program's
verifiers through references taken at import, before any span is installed,
so checking never shows up in the traced per-layer numbers.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from treedecomp import apportionment, cli, decomposition, groupaction, labeling, trees

_verify_partition = decomposition.verify_partition
_verify_beta = labeling.verify_beta


@dataclass
class PassResult:
    run_s: float  # wall time of the timed part of the pass
    item_s: list[float]  # per item, in input order
    failures: list[str] = field(default_factory=list)  # one entry per failed item
    skipped: int = 0  # check instances skipped by caps
    instances: int = 0  # check instances attempted
    records: list[dict] = field(default_factory=list)  # campaign records
    digests: list = field(default_factory=list)  # per item, see _run_items
    scale: float = 1.0  # converts this pass's times to the reference speed


def _run_items(prepared, clock, call, check, digest=None, expected=None) -> PassResult:
    """Time ``call(item)`` for each item. Outside the timed interval,
    ``check(item, output)`` returns a failure message or None; when the
    first pass's ``expected`` digests are given, a later pass only has to
    reproduce them. An exception is a failure."""
    result = PassResult(run_s=0.0, item_s=[])
    for i, item in enumerate(prepared):
        start = clock()
        try:
            output = call(item)
        except Exception as exc:  # recorded as a failed item; the run goes on
            result.item_s.append(clock() - start)
            result.digests.append(None)
            result.failures.append(f"{item[0]}: {type(exc).__name__}: {exc}")
            continue
        result.item_s.append(clock() - start)
        result.digests.append(digest(output) if digest else None)
        if expected is not None and digest is not None:
            problem = None if result.digests[-1] == expected[i] else "differs from pass 1"
        else:
            problem = check(item, output)
        if problem is not None:
            result.failures.append(f"{item[0]}: {problem}")
    result.run_s = sum(result.item_s)
    return result


class Campaign:
    """``cli.run_campaign`` on the pinned config; an item is one record."""

    name = "campaign"
    items = inputs.CAMPAIGN_RECORDS

    def prepare(self, seed: int, workdir: Path):
        # The pinned config is the ROADMAP's end-to-end job; the seed has
        # nothing to vary in it.
        return inputs.campaign_config(), workdir / "records.jsonl"

    def run_pass(self, prepared, expected=None, clock=time.perf_counter) -> PassResult:
        config, out_path = prepared
        out_path.unlink(missing_ok=True)
        item_s: list[float] = []
        make_record = cli._campaign_record

        def timed_record(task):
            start = clock()
            try:
                return make_record(task)
            finally:
                item_s.append(clock() - start)

        # run_campaign looks the record builder up as a module global, and
        # each record is one item.
        cli._campaign_record = timed_record
        start = clock()
        try:
            summary, records = cli.run_campaign(config, out_path=str(out_path), workers=1)
        except Exception as exc:  # the whole pass failed
            return PassResult(
                run_s=clock() - start,
                item_s=item_s,
                failures=[f"run_campaign: {type(exc).__name__}: {exc}"] * self.items,
            )
        finally:
            cli._campaign_record = make_record
        result = PassResult(run_s=clock() - start, item_s=item_s, records=records)
        result.skipped = summary["skipped"]
        result.instances = len(records) * len(config["checks"])
        result.failures = self._check(summary, records, out_path)
        return result

    def _check(self, summary, records, out_path: Path) -> list[str]:
        failures = []
        with open(out_path, encoding="utf-8") as fh:
            written = [json.loads(line)["tree_code"] for line in fh]
        missing = self.items - len(records)
        if missing or summary["records"] != len(records):
            failures += [f"{len(records)} records, expected {self.items}"] * max(missing, 1)
        if written != [r["tree_code"] for r in records]:
            failures.append("JSONL output differs from the returned records")
        if not summary["all_pass"]:
            failures.append(f"all_pass is false: {summary['failures']}")
        for r in records:
            failed = sorted(k for k, res in r["checks"].items() if res.get("pass") is False)
            tree = trees.tree_from_level_sequence(bytes.fromhex(r["tree_code"]))
            if r["labeling"] is None or not isinstance(
                _verify_beta(tree, r["labeling"]), labeling.Labeling
            ):
                failed.append("labeling")
            if failed:
                failures.append(f"{r['tree_code']}: {failed}")
        return failures


class LabelCatalog:
    """``find_beta(t, "first")`` on relabeled catalog trees; an item is one
    searched tree."""

    name = "label-catalog"

    def prepare(self, seed: int, workdir: Path):
        return [
            (f"n={s.n} {s.code}", trees.from_parent_map(s.n, s.g))
            for s in inputs.relabeled_catalog(seed)
        ]

    def run_pass(self, prepared, expected=None, clock=time.perf_counter) -> PassResult:
        return _run_items(
            prepared, clock, lambda item: labeling.find_beta(item[1], "first"), _check_beta
        )


def _check_beta(item, lab) -> str | None:
    if lab is None:
        return "no beta-labeling found"
    if not isinstance(_verify_beta(item[1], lab.sigma), labeling.Labeling):
        return "returned sigma fails verify_beta"
    return None


class Construct:
    """Decompositions, group closures and apportionment checks on random
    caterpillars with their closed-form labelings; an item is one
    construction."""

    name = "construct"

    def prepare(self, seed: int, workdir: Path):
        return [
            (f"{c.kind} n={c.tree.n} x={c.x}", c, trees.from_parent_map(c.tree.n, c.tree.g))
            for c in inputs.construct_plan(seed)
        ]

    def run_pass(self, prepared, expected=None, clock=time.perf_counter) -> PassResult:
        # A separate verify_partition costs about as much as the
        # construction, so only the first pass runs the full checks.
        return _run_items(prepared, clock, _construct, _check_construct, _digest, expected)


def _construct(item):
    _, c, t = item
    sigma = c.tree.sigma
    if c.kind == "knn":
        return decomposition.decompose_directed_knn(t, sigma)
    if c.kind == "k2n1":
        return decomposition.decompose_k2n1(t, sigma, c.x)
    if c.kind == "knxnx":
        return decomposition.decompose_knxnx(t, sigma, c.x)
    if c.kind == "group":
        return groupaction.closure([groupaction.sigma_from_labeled_tree(t, sigma)])
    if c.kind == "apportion":
        return (
            apportionment.check_apportionment(t, sigma),
            apportionment.check_allones_identity(t, sigma),
        )
    raise ValueError(f"unknown construction {c.kind!r}")


def _digest(output):
    if isinstance(output, tuple):  # the two apportionment reports
        return tuple(rep.ok for rep in output)
    if hasattr(output, "closed_ok"):
        return output.order, output.closed_ok
    return output.host, hash(output.copies)


def _expected_copies(kind: str, n: int, x: int) -> int:
    if kind == "knn":
        return n
    if kind == "k2n1":
        return x * (2 * (n - 1) * x + 1)
    return (n - 1) * x * x  # knxnx


def _check_construct(item, output) -> str | None:
    _, c, _ = item
    if c.kind == "group":
        return None if output.closed_ok else "closure is not closed"
    if c.kind == "apportion":
        bad = [rep for rep in output if not rep.ok]
        return f"apportionment report not ok: {bad}" if bad else None
    expected = _expected_copies(c.kind, c.tree.n, c.x)
    if len(output.copies) != expected:
        return f"{len(output.copies)} copies, expected {expected}"
    report = _verify_partition(output)
    return None if report.ok else f"verify_partition: {report.problem}"


WORKLOADS = {w.name: w for w in (Campaign(), LabelCatalog(), Construct())}
