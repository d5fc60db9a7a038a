"""Command-line interface and batch campaign driver.

Exit codes: 0 all checks passed; 1 a verification failed (no labeling found
included) or a reduction diverged; 2 any other treedecomp error, bad JSON or
an unreadable file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from multiprocessing import Pool
from typing import Sequence

from . import __version__, apportionment, certificate, decomposition, groupaction
from . import labeling as lb
from . import trees
from .errors import (
    MalformedInput,
    ReductionDiverged,
    ResourceLimit,
    TreeDecompError,
    UnsupportedFormat,
    VerificationFailed,
)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def labeling_to_json(lab: lb.Labeling) -> str:
    return json.dumps({"sigma": list(lab.sigma)})


def sigma_from_json(text: str) -> tuple[int, ...]:
    try:
        obj = json.loads(text)
        sigma = tuple(obj["sigma"] if isinstance(obj, dict) else obj)
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise MalformedInput(f"bad labeling JSON: {exc}") from exc
    if any(type(v) is not int for v in sigma):
        raise MalformedInput(f"labeling entries must be ints: {list(sigma)}")
    return sigma


def labeling_from_json(text: str, t: trees.FunctionalTree) -> lb.Labeling:
    return decomposition._as_labeling(t, sigma_from_json(text))


def labeling_to_dot(lab: lb.Labeling) -> str:
    """The relabeled tree with each vertex's signed edge label annotated."""
    lines = ["digraph labeled_tree {"]
    for v, parent in enumerate(lab.h):
        lines.append(f'  {v} -> {parent} [label="{lab.signed_labels[v]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_object(obj, fmt: str) -> str:
    """Stable serialization of a tree, labeling, or decomposition."""
    if fmt not in ("json", "dot"):
        raise UnsupportedFormat(f"unknown format {fmt!r}")
    if isinstance(obj, trees.FunctionalTree):
        return trees.tree_to_json(obj) if fmt == "json" else trees.tree_to_dot(obj)
    if isinstance(obj, lb.Labeling):
        return labeling_to_json(obj) if fmt == "json" else labeling_to_dot(obj)
    if isinstance(obj, decomposition.Decomposition):
        if fmt == "json":
            return decomposition.decomposition_to_json(obj)
        return decomposition.decomposition_to_dot(obj)
    raise UnsupportedFormat(f"cannot export object of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

def _knn(t: trees.FunctionalTree, lab: lb.Labeling, xs: Sequence[int]) -> dict:
    decomposition.decompose_directed_knn(t, lab)
    return {}


def _for_each_x(build):
    """A check that builds one decomposition per campaign x."""

    def check(t: trees.FunctionalTree, lab: lb.Labeling, xs: Sequence[int]) -> dict:
        if t.n < 2:
            raise ResourceLimit("tree has no edges")
        for x in xs:
            build(t, lab, x)
        return {}

    return check


def _magnitude(t: trees.FunctionalTree, lab: lb.Labeling, xs: Sequence[int]) -> dict:
    rep = certificate.certificate_magnitude_check(t)
    return {"pass": rep.ok, "expected": str(rep.expected)}


def _invariance(t: trees.FunctionalTree, lab: lb.Labeling, xs: Sequence[int]) -> dict:
    if not trees.sibling_leaf_pairs(t):
        raise ResourceLimit("no sibling-leaf pair")
    return {"pass": certificate.check_transposition_invariance(t).ok}


def _composition(t: trees.FunctionalTree, lab: lb.Labeling, xs: Sequence[int]) -> dict:
    rep = certificate.chain_report(t)
    return {"pass": rep.ok, "transitions": rep.transitions}


def _allones(t: trees.FunctionalTree, lab: lb.Labeling, xs: Sequence[int]) -> dict:
    rep = apportionment.check_allones_identity(t, lab)
    return {"pass": rep.ok, "residual": rep.max_deviation}


def _apportion(t: trees.FunctionalTree, lab: lb.Labeling, xs: Sequence[int]) -> dict:
    rep = apportionment.check_apportionment(t, lab)
    return {"pass": rep.ok, "residual": rep.kappa_max_error}


# Each check maps (tree, its labeling, the campaign's xs) to the record fields
# that differ from {"pass": True, "residual": None}. A check runs only on a
# labeling the search found, so "beta" passes by being reached.
CHECKS = {
    "beta": lambda t, lab, xs: {},
    "graceful": lambda t, lab, xs: {"pass": lb.verify_graceful(t, lab.sigma).ok},
    "phi": lambda t, lab, xs: {"phi_size": len(lb.phi_set(t))},
    "knn": _knn,
    "k2n1": _for_each_x(decomposition.decompose_k2n1),
    "knxnx": _for_each_x(decomposition.decompose_knxnx),
    "magnitude": _magnitude,
    "nonzero": lambda t, lab, xs: {"pass": certificate.nonvanishing_by_sweep(t)},
    "invariance": _invariance,
    "composition": _composition,
    "allones": _allones,
    "apportion": _apportion,
}


def _attempt(fn, *args):
    """(fn(*args), None), or (None, the record entry of what it raised)."""
    try:
        return fn(*args), None
    except VerificationFailed as exc:
        return None, {"pass": False, "residual": None, "detail": str(exc)}
    except ResourceLimit as exc:
        return None, {"pass": None, "skipped": True, "reason": str(exc)}


def _run_check(name: str, t: trees.FunctionalTree, lab: lb.Labeling, xs: Sequence[int]):
    start = time.perf_counter()
    fields, failed = _attempt(CHECKS[name], t, lab, xs)
    result = failed or {"pass": True, "residual": None, **fields}
    result["runtime_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    return result


def _campaign_record(task) -> dict:
    n, g, code_hex, checks, xs = task
    t = trees.from_parent_map(n, g)
    start = time.perf_counter()
    # Without a labeling (above the search cap, or none found) every check
    # records the search's outcome.
    lab, failed = _attempt(_labeling_arg, None, t)
    return {
        "tree_code": code_hex,
        "n": n,
        "labeling": list(lab.sigma) if lab is not None else None,
        "search_ms": round((time.perf_counter() - start) * 1000.0, 3),
        "checks": {
            name: dict(failed, runtime_ms=0.0) if failed else _run_check(name, t, lab, xs)
            for name in checks
        },
        "toolchain_version": __version__,
    }


def _span(value) -> list[int]:
    if isinstance(value, int):
        return [value]
    if isinstance(value, list) and len(value) == 2 and all(isinstance(v, int) for v in value):
        if value[0] <= value[1]:
            return list(range(value[0], value[1] + 1))
    raise MalformedInput(f"expected an int or [lo, hi] span with lo <= hi, got {value!r}")


def run_campaign(config: dict, out_path: str | None = None, workers: int | None = None):
    """Run the configured checks over the tree catalog; append JSONL records."""
    if not isinstance(config, dict):
        raise MalformedInput(f"campaign config must be a JSON object, got {config!r}")
    checks = config.get("checks", [])
    if not isinstance(checks, list):
        raise MalformedInput(f"checks must be a list of names, got {checks!r}")
    unknown = [c for c in checks if not (isinstance(c, str) and c in CHECKS)]
    if unknown:
        raise MalformedInput(f"unknown checks: {unknown}")
    n_values = _span(config.get("n", [1, 6]))
    x_values = _span(config.get("x", [1, 1]))
    workers = workers if workers is not None else config.get("workers", 1)
    if type(workers) is not int:
        raise MalformedInput(f"workers must be an int, got {workers!r}")
    out_path = out_path if out_path is not None else config.get("out")
    if out_path is not None and not isinstance(out_path, str):
        # open() would take an int (or bool) as a file descriptor
        raise MalformedInput(f"out must be a path, got {out_path!r}")

    tasks = []
    for n in n_values:
        for entry in trees.enumerate_free_trees(n):
            tasks.append(
                (n, list(entry.tree.g), entry.canonical_code.hex(), checks, x_values)
            )

    if workers > 1:
        with Pool(workers) as pool:
            records = pool.map(_campaign_record, tasks)
    else:
        records = [_campaign_record(task) for task in tasks]

    if out_path:
        with open(out_path, "a", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")

    failures = sorted(
        {
            r["tree_code"]
            for r in records
            for res in r["checks"].values()
            if res.get("pass") is False
        }
    )
    skipped = sum(
        1
        for r in records
        for res in r["checks"].values()
        if res.get("skipped")
    )
    summary = {
        "records": len(records),
        "failures": failures,
        "skipped": skipped,
        "all_pass": not failures,
        "toolchain_version": __version__,
    }
    return summary, records


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def _read_arg_text(value: str) -> str:
    """Inline JSON if it looks like JSON, else the contents of a file."""
    stripped = value.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return stripped
    if not os.path.exists(value):
        raise MalformedInput(f"no such file: {value}")
    with open(value, "r", encoding="utf-8") as fh:
        return fh.read()


def _tree_arg(value: str) -> trees.FunctionalTree:
    return trees.tree_from_json(_read_arg_text(value))


def _labeling_arg(value: str | None, t: trees.FunctionalTree) -> lb.Labeling:
    """The --sigma labeling when given, else the first one the search finds."""
    if value:
        return labeling_from_json(_read_arg_text(value), t)
    lab = lb.find_beta(t, "first")
    if lab is None:
        raise VerificationFailed("no beta-labeling found")
    return lab


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


DECOMPOSERS = {
    "knn": lambda t, lab, x: decomposition.decompose_directed_knn(t, lab),
    "k2n1": decomposition.decompose_k2n1,
    "knxnx": decomposition.decompose_knxnx,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treedecomp",
        description="Beta-labelings, cyclic tree decompositions, exact "
        "certificates, group actions, and apportionment checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_trees = sub.add_parser("trees", help="tree catalog operations")
    trees_sub = p_trees.add_subparsers(dest="subcommand", required=True)
    p_enum = trees_sub.add_parser("enumerate", help="one tree per isomorphism class")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--format", choices=("json", "dot"), default="json")
    p_enum.add_argument("--out")

    p_label = sub.add_parser("label", help="beta-labeling search and verification")
    label_sub = p_label.add_subparsers(dest="subcommand", required=True)
    p_find = label_sub.add_parser("find")
    p_find.add_argument("--tree", required=True)
    p_find.add_argument("--all", action="store_true")
    p_find.add_argument("--seed", type=int)
    p_find.add_argument("--out")
    p_verify = label_sub.add_parser("verify")
    p_verify.add_argument("--tree", required=True)
    p_verify.add_argument("--sigma", required=True)
    p_phi = label_sub.add_parser("phi")
    p_phi.add_argument("--tree", required=True)
    p_phi.add_argument("--out")

    p_dec = sub.add_parser("decompose", help="build and verify a decomposition")
    p_dec.add_argument("--tree", required=True)
    p_dec.add_argument("--target", choices=tuple(DECOMPOSERS), required=True)
    p_dec.add_argument("--x", type=int, default=1)
    p_dec.add_argument("--sigma", help="labeling JSON; searched when omitted")
    p_dec.add_argument("--verify", action="store_true", help="print the partition report")
    p_dec.add_argument("--format", choices=("json", "dot"), default="json")
    p_dec.add_argument("--out")

    p_cert = sub.add_parser("certificate", help="exact certificate operations")
    cert_sub = p_cert.add_subparsers(dest="subcommand", required=True)
    p_eval = cert_sub.add_parser("eval")
    p_eval.add_argument("--tree", required=True)
    p_eval.add_argument("--point", required=True, help="JSON list in Z_n^n")
    p_mag = cert_sub.add_parser("magnitude")
    p_mag.add_argument("--tree", required=True)
    p_nz = cert_sub.add_parser("nonzero")
    p_nz.add_argument("--tree", required=True)
    p_nz.add_argument("--full-lattice", action="store_true")
    p_inv = cert_sub.add_parser("invariance")
    p_inv.add_argument("--tree", required=True)
    p_ms = cert_sub.add_parser("monomial-support")
    p_ms.add_argument("--n", type=int, required=True)
    p_comp = cert_sub.add_parser("composition")
    p_comp.add_argument("--n", type=int, required=True)

    p_group = sub.add_parser("group", help="entry-permutation group actions")
    group_sub = p_group.add_subparsers(dest="subcommand", required=True)
    p_gex = group_sub.add_parser("example")
    p_gex.add_argument("--n", type=int, default=3)
    p_gft = group_sub.add_parser("from-tree")
    p_gft.add_argument("--tree", required=True)
    p_gft.add_argument("--sigma")
    p_gcl = group_sub.add_parser("closure")
    p_gcl.add_argument("--perm", action="append", required=True,
                       help="entry permutation as a JSON index array (repeatable)")

    p_app = sub.add_parser("apportion", help="unitary apportionment checks")
    app_sub = p_app.add_subparsers(dest="subcommand", required=True)
    p_appc = app_sub.add_parser("check")
    p_appc.add_argument("--tree")
    p_appc.add_argument("--sigma")
    p_appc.add_argument("--tol", type=float, default=apportionment.DEFAULT_TOL)
    p_appc.add_argument("--n-max", type=int, default=8)

    p_camp = sub.add_parser("campaign", help="batch sweeps over the catalog")
    camp_sub = p_camp.add_subparsers(dest="subcommand", required=True)
    p_run = camp_sub.add_parser("run")
    p_run.add_argument("--config", required=True, help="campaign JSON (inline or file)")
    p_run.add_argument("--out", help="JSONL record path (overrides config)")
    p_run.add_argument("--workers", type=int)

    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_trees(args) -> int:
    entries = list(trees.enumerate_free_trees(args.n))
    if args.format == "json":
        lines = [
            json.dumps(
                {
                    "n": e.tree.n,
                    "g": list(e.tree.g),
                    "code": e.canonical_code.hex(),
                    "index": e.index,
                }
            )
            for e in entries
        ]
        _emit("\n".join(lines), args.out)
    else:
        _emit("\n".join(trees.tree_to_dot(e.tree) for e in entries), args.out)
    return 0


def _cmd_label(args) -> int:
    t = _tree_arg(args.tree)
    if args.subcommand == "find":
        if args.all:
            labs = lb.find_beta(t, "all", seed=args.seed)
            _emit(json.dumps({"labelings": [list(l.sigma) for l in labs]}), args.out)
            return 0 if labs else 1
        lab = lb.find_beta(t, "first", seed=args.seed)
        if lab is None:
            _emit(json.dumps({"found": False}), None)
            return 1
        _emit(labeling_to_json(lab), args.out)
        return 0
    if args.subcommand == "verify":
        result = lb.verify_beta(t, sigma_from_json(_read_arg_text(args.sigma)))
        ok = isinstance(result, lb.Labeling)
        fields = {"ok": ok, "signed_labels": list(result.signed_labels)}
        if not ok:
            fields["duplicated"] = list(result.duplicated)
            fields["out_of_range"] = list(result.out_of_range)
            fields["offending"] = [list(p) for p in result.offending]
        _emit(json.dumps(fields), None)
        return 0 if ok else 1
    if args.subcommand == "phi":
        phis = lb.phi_set(t)
        _emit(json.dumps({"count": len(phis), "phi": [list(p) for p in phis]}), args.out)
        return 0


def _cmd_decompose(args) -> int:
    t = _tree_arg(args.tree)
    d = DECOMPOSERS[args.target](t, _labeling_arg(args.sigma, t), args.x)
    _emit(export_object(d, args.format), args.out)
    if args.verify:
        # The constructor has run verify_partition and raises when it fails.
        sys.stderr.write(json.dumps({"ok": True, "copies": len(d.copies)}) + "\n")
    return 0


def _cmd_certificate(args) -> int:
    if args.subcommand == "eval":
        t = _tree_arg(args.tree)
        point = json.loads(_read_arg_text(args.point))
        value = certificate.eval_certificate(t, point)
        _emit(json.dumps({"value": str(value)}), None)
        return 0
    if args.subcommand == "magnitude":
        rep = certificate.certificate_magnitude_check(_tree_arg(args.tree))
        _emit(
            json.dumps(
                {"ok": rep.ok, "expected": str(rep.expected), "phi_size": rep.phi_size}
            ),
            None,
        )
        return 0 if rep.ok else 1
    if args.subcommand == "nonzero":
        ok = certificate.nonvanishing_by_sweep(
            _tree_arg(args.tree), full_lattice=args.full_lattice
        )
        _emit(json.dumps({"nonzero": ok}), None)
        return 0 if ok else 1
    if args.subcommand == "invariance":
        rep = certificate.check_transposition_invariance(_tree_arg(args.tree))
        _emit(
            json.dumps(
                {
                    "ok": rep.ok,
                    "pairs": [list(p) for p in rep.pairs],
                    "witness": list(rep.witness) if rep.witness else None,
                }
            ),
            None,
        )
        return 0 if rep.ok else 1
    if args.subcommand == "monomial-support":
        rep = certificate.check_monomial_support(args.n)
        _emit(json.dumps({"ok": rep.ok, "bases_checked": rep.bases_checked}), None)
        return 0 if rep.ok else 1
    if args.subcommand == "composition":
        reports = certificate.check_composition_implication(args.n)
        ok = all(r.ok for r in reports)
        _emit(
            json.dumps(
                {
                    "ok": ok,
                    "trees": [
                        {
                            "code": r.code.hex(),
                            "transitions": r.transitions,
                            "phi_nonempty": list(r.phi_nonempty),
                        }
                        for r in reports
                    ],
                }
            ),
            None,
        )
        return 0 if ok else 1


def _cmd_group(args) -> int:
    if args.subcommand == "example":
        if args.n != 3:
            raise MalformedInput("the worked example is n=3")
        sigma1 = groupaction.sigma_from_first_column(3, [0, 3, 1])
        summary = groupaction.closure([sigma1])
        _emit(
            json.dumps(
                {
                    "sigma1": list(sigma1.sigma),
                    "matrix": sigma1.matrix(),
                    "order": summary.order,
                    "cyclic": summary.cyclic,
                }
            ),
            None,
        )
        return 0
    if args.subcommand == "from-tree":
        t = _tree_arg(args.tree)
        ep = groupaction.sigma_from_labeled_tree(t, _labeling_arg(args.sigma, t))
        _emit(json.dumps({"n": ep.n, "sigma": list(ep.sigma)}), None)
        return 0
    if args.subcommand == "closure":
        gens = []
        for text in args.perm:
            sigma = json.loads(_read_arg_text(text))
            if not isinstance(sigma, list) or any(type(v) is not int for v in sigma):
                raise MalformedInput("entry permutation must be a JSON array of ints")
            # closure rejects a length that is not a square
            side = math.isqrt(len(sigma))
            gens.append(groupaction.EntryPermutation(n=side, sigma=tuple(sigma)))
        summary = groupaction.closure(gens)
        _emit(
            json.dumps(
                {
                    "order": summary.order,
                    "cyclic": summary.cyclic,
                    "closed": summary.closed_ok,
                }
            ),
            None,
        )
        return 0


def _cmd_apportion(args) -> int:
    if args.tree:
        t = _tree_arg(args.tree)
        rep = apportionment.check_apportionment(t, _labeling_arg(args.sigma, t), tol=args.tol)
        _emit(
            json.dumps(
                {
                    "ok": rep.ok,
                    "kappa": rep.kappa,
                    "kappa_max_error": rep.kappa_max_error,
                    "unitary_residual": rep.unitary_residual,
                }
            ),
            None,
        )
        return 0 if rep.ok else 1
    if args.n_max < 1:
        raise MalformedInput(f"--n-max must be at least 1, got {args.n_max}")
    results = []
    all_ok = True
    for n in range(1, args.n_max + 1):
        for entry in trees.enumerate_free_trees(n):
            lab = _labeling_arg(None, entry.tree)
            rep = apportionment.check_apportionment(entry.tree, lab, tol=args.tol)
            all_ok = all_ok and rep.ok
            results.append(
                {
                    "code": entry.canonical_code.hex(),
                    "n": n,
                    "ok": rep.ok,
                    "kappa_max_error": rep.kappa_max_error,
                }
            )
    _emit(json.dumps({"ok": all_ok, "trees": results}), None)
    return 0 if all_ok else 1


def _cmd_campaign(args) -> int:
    config = json.loads(_read_arg_text(args.config))
    summary, _records = run_campaign(config, out_path=args.out, workers=args.workers)
    _emit(json.dumps(summary), None)
    return 0 if summary["all_pass"] else 1


COMMANDS = {
    "trees": _cmd_trees,
    "label": _cmd_label,
    "decompose": _cmd_decompose,
    "certificate": _cmd_certificate,
    "group": _cmd_group,
    "apportion": _cmd_apportion,
    "campaign": _cmd_campaign,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (VerificationFailed, ReductionDiverged) as exc:
        kind = "verification failed" if isinstance(exc, VerificationFailed) else "error"
        sys.stderr.write(f"{kind}: {exc}\n")
        return 1
    except (TreeDecompError, json.JSONDecodeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
