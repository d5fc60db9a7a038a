"""Command-line interface and batch campaign driver.

Exit codes: 0 all checks passed; 1 a verification failed (no labeling found
included); 2 any other treedecomp error, bad JSON or an unreadable file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
import time
from multiprocessing import Pool
from typing import Sequence

from . import __version__, apportionment, certificate, decomposition, groupaction
from . import labeling as lb
from . import trees
from .errors import (MalformedInput, PreconditionViolated, ResourceLimit, TreeDecompError,
                     VerificationFailed)


def sigma_from_json(value: str) -> tuple[int, ...]:
    """The int array in value, inline JSON or a file: an array or {"sigma": array}.
    It reads --sigma, --perm and --point, so the output of label find and of
    group from-tree can be passed on as it is."""
    obj = _json_arg(value)
    try:
        sigma = tuple(obj["sigma"] if isinstance(obj, dict) else obj)
    except (TypeError, KeyError) as exc:
        raise MalformedInput(f"bad int-array JSON: {exc}") from exc
    bad = [v for v in sigma if type(v) is not int]
    if bad:
        raise MalformedInput(f"array entries must be ints, got {bad[0]!r}")
    return sigma


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

# Each builder is looked up in decomposition at each call, as a patch of
# that module attribute (a timing span, say) is then seen.
DECOMPOSERS = {
    "knn": lambda t, lab, x: decomposition.decompose_directed_knn(t, lab),
    "k2n1": lambda t, lab, x: decomposition.decompose_k2n1(t, lab, x),
    "knxnx": lambda t, lab, x: decomposition.decompose_knxnx(t, lab, x),
}


def _decomposes(kind: str):
    """A check that builds kind's decomposition once per campaign x, once on knn."""

    def check(t: trees.FunctionalTree, lab: lb.Labeling, xs: Sequence[int], phi) -> dict:
        for x in xs[:1] if kind == "knn" else xs:
            DECOMPOSERS[kind](t, lab, x)
        return {}

    return check


def _magnitude(t: trees.FunctionalTree, lab: lb.Labeling, xs: Sequence[int], phi) -> dict:
    rep = certificate.certificate_magnitude_check(phi())
    return {"pass": rep.ok, "expected": str(rep.expected)}


def _nonzero(t: trees.FunctionalTree, lab: lb.Labeling, xs: Sequence[int], phi) -> dict:
    witness = certificate.nonvanishing_by_sweep(phi())
    return {"pass": witness is not None, "witness": witness and list(witness)}


def _invariance(t: trees.FunctionalTree, lab: lb.Labeling, xs: Sequence[int], phi) -> dict:
    if not trees.sibling_leaf_pairs(t):
        raise PreconditionViolated("no sibling-leaf pair")
    return {"pass": certificate.check_transposition_invariance(phi()).ok}


def _composition(t: trees.FunctionalTree, lab: lb.Labeling, xs: Sequence[int], phi) -> dict:
    rep = certificate.chain_report(t)
    return {"pass": rep.ok, "transitions": rep.transitions}


def _allones(t: trees.FunctionalTree, lab: lb.Labeling, xs: Sequence[int], phi) -> dict:
    rep = apportionment.check_allones_identity(t, lab)
    return {"pass": rep.ok, "residual": rep.max_deviation}


def _apportion(t: trees.FunctionalTree, lab: lb.Labeling, xs: Sequence[int], phi) -> dict:
    rep = apportionment.check_apportionment(t, lab)
    return {"pass": rep.ok, "residual": rep.kappa_max_error}


# Each check maps (tree, its labeling, the campaign's xs, phi) to the record
# fields that differ from {"pass": True, "residual": None}; phi() returns the
# tree's labeling.PhiOrbits, one per record. A check runs only on a labeling
# the search found, so "beta" passes by being reached.
CHECKS = {
    "beta": lambda t, lab, xs, phi: {},
    "graceful": lambda t, lab, xs, phi: {"pass": lb.verify_graceful(t, lab.sigma).ok},
    "phi": lambda t, lab, xs, phi: {
        "phi_size": sum(1 for _ in phi().members()), "orbits": len(phi().reps)
    },
    "knn": _decomposes("knn"),
    "k2n1": _decomposes("k2n1"),
    "knxnx": _decomposes("knxnx"),
    "magnitude": _magnitude,
    "nonzero": _nonzero,
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
    except (ResourceLimit, PreconditionViolated) as exc:  # a cap, or a tree it cannot take
        return None, {"pass": None, "skipped": True, "reason": str(exc)}


def _run_check(name: str, t: trees.FunctionalTree, lab: lb.Labeling, xs: Sequence[int], phi):
    start = time.perf_counter()
    fields, failed = _attempt(CHECKS[name], t, lab, xs, phi)
    result = failed or {"pass": True, "residual": None, **fields}
    result["runtime_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    return result


def _campaign_record(task) -> dict:
    n, g, code_hex, checks, xs = task
    t = trees.from_parent_map(n, g)
    start = time.perf_counter()
    nodes = lb.search_nodes()
    # Without a labeling (above the search cap, or none found) every check
    # records the search's outcome.
    lab, failed = _attempt(_labeling_arg, None, t)
    phi = functools.cache(lambda: lb.phi_orbits(t))  # searched once; a raise is not cached
    return {
        "tree_code": code_hex,
        "n": n,
        "labeling": list(lab.sigma) if lab is not None else None,
        "search_ms": round((time.perf_counter() - start) * 1000.0, 3),
        "search_nodes": lb.search_nodes() - nodes,
        "checks": {
            name: dict(failed, runtime_ms=0.0) if failed else _run_check(name, t, lab, xs, phi)
            for name in checks
        },
        "toolchain_version": __version__,
    }


def _span(value) -> range:
    # type(), not isinstance(): a JSON true is a bool, which subclasses int
    if type(value) is int:
        return range(value, value + 1)
    if isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value):
        if value[0] <= value[1]:
            return range(value[0], value[1] + 1)
    raise MalformedInput(f"expected an int or [lo, hi] span with lo <= hi, got {value!r}")


CONFIG_KEYS = ("checks", "n", "x", "workers", "out")


def run_campaign(config: dict, out_path: str | None = None, workers: int | None = None):
    """Run the configured checks over the tree catalog; append each JSONL record as it is made."""
    if not isinstance(config, dict):
        raise MalformedInput(f"campaign config must be a JSON object, got {config!r}")
    unknown = sorted(k for k in config if k not in CONFIG_KEYS)
    if unknown:
        raise MalformedInput(f"unknown config keys: {unknown}")
    checks = config.get("checks", [])
    if not isinstance(checks, list):
        raise MalformedInput(f"checks must be a list of names, got {checks!r}")
    unknown = [c for c in checks if not (isinstance(c, str) and c in CHECKS)]
    if unknown:
        raise MalformedInput(f"unknown checks: {unknown}")
    n_values = _span(config.get("n", [1, 6]))
    # enumerate_free_trees checks one n as its catalog starts, so the top
    # of the span is checked before any catalog is enumerated
    top, cap = n_values[-1], trees.ENUMERATION_CAP
    if top > cap:
        raise ResourceLimit(f"n = {top} exceeds the enumeration cap {cap}")
    x_values = _span(config.get("x", [1, 1]))
    if x_values[0] < 1:
        raise MalformedInput(f"x must be at least 1, got {x_values[0]}")
    # decompose's own bound, on the span's top host: the export size grows
    # with the tree's vertices and with x; a top below 1 is its catalog's to refuse
    for kind in ("k2n1", "knxnx"):
        if kind in checks and top >= 1:
            decomposition.check_export_size(decomposition.host_for(kind, top, x_values[-1]), False)
    workers = workers if workers is not None else config.get("workers", 1)
    if type(workers) is not int or workers < 1:
        raise MalformedInput(f"workers must be a positive int, got {workers!r}")
    out_path = out_path if out_path is not None else config.get("out")
    if out_path is not None and not isinstance(out_path, str):
        # open() would take an int (or bool) as a file descriptor
        raise MalformedInput(f"out must be a path, got {out_path!r}")

    tasks = (
        (n, list(entry.tree.g), entry.canonical_code.hex(), checks, x_values)
        for n in n_values
        for entry in trees.enumerate_free_trees(n)
    )
    # one task per usable worker is read ahead, the rest as records are made
    head = list(itertools.islice(tasks, min(workers, os.cpu_count() or 1)))
    workers = len(head)
    records, failures, skipped = [], set(), 0
    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(open(out_path, "a", encoding="utf-8")) if out_path else None
        pool = stack.enter_context(Pool(workers)) if workers > 1 else None
        for record in (pool.imap if pool else map)(_campaign_record, itertools.chain(head, tasks)):
            records.append(record)
            if fh:
                print(json.dumps(record), file=fh, flush=True)
            for res in record["checks"].values():
                if res.get("pass") is False:
                    failures.add(record["tree_code"])
                skipped += bool(res.get("skipped"))

    summary = {
        "records": len(records),
        "failures": sorted(failures),
        "skipped": skipped,
        "all_pass": not failures,
        "toolchain_version": __version__,
    }
    return summary, records


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def _json_arg(value: str):
    """The JSON in value, inline if it looks like JSON, else a file's contents;
    MalformedInput for a file that is not UTF-8 and for whatever json.loads
    refuses, a nesting too deep or an integer too long among them."""
    text = value.strip()
    inline = text.startswith(("{", "["))
    if not inline and not os.path.exists(value):
        raise MalformedInput(f"no such file: {value}")
    try:
        if not inline:
            with open(value, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError covers both decode errors
        raise MalformedInput(f"bad JSON: {exc}") from exc


def _tree_arg(value: str) -> trees.FunctionalTree:
    obj = _json_arg(value)
    try:
        return trees.from_parent_map(obj["n"], obj["g"])
    except (TypeError, KeyError) as exc:
        raise MalformedInput(f"bad tree JSON: {exc}") from exc


def _labeling_arg(value: str | None, t: trees.FunctionalTree) -> lb.Labeling:
    """The --sigma labeling when given, else the first one the search finds."""
    if value:
        return lb.as_labeling(t, sigma_from_json(value))
    lab = lb.find_beta(t, "first")
    if lab is None:
        raise VerificationFailed("no beta-labeling found")
    return lab


# ---------------------------------------------------------------------------
# Command handlers: each returns (output, ok), output a JSON object or text parts
# ---------------------------------------------------------------------------


def _trees_enumerate(args):
    entries = trees.enumerate_free_trees(args.n)
    if args.format == "dot":
        # one digraph per tree, a blank line between two
        return (("\n" if e.index else "") + trees.tree_to_dot(e.tree) for e in entries), True
    lines = (
        {"n": e.tree.n, "g": list(e.tree.g), "code": e.canonical_code.hex(), "index": e.index}
        for e in entries
    )
    return (json.dumps(line) + "\n" for line in lines), True


def _label_find(args):
    lab = lb.find_beta(_tree_arg(args.tree), "first", seed=args.seed)
    if lab is None:
        return {"found": False}, False
    return {"sigma": list(lab.sigma)}, True


def _label_verify(args):
    result = lb.verify_beta(_tree_arg(args.tree), sigma_from_json(args.sigma))
    ok = isinstance(result, lb.Labeling)
    fields = {"ok": ok, "signed_labels": list(result.signed_labels)}
    if not ok:
        fields["duplicated"] = list(result.duplicated)
        fields["out_of_range"] = list(result.out_of_range)
        fields["offending"] = [list(p) for p in result.offending]
    return fields, ok


def _label_phi(args):
    phis = lb.phi_set(_tree_arg(args.tree))
    return {"count": len(phis), "phi": [list(p) for p in phis]}, True


def _decompose(args):
    t = _tree_arg(args.tree)
    # refused past the cap before a labeling is searched or a base is built
    host = decomposition.host_for(args.target, t.n, args.x)
    decomposition.check_export_size(host, args.format == "dot")
    # The constructor runs verify_partition and raises when it fails.
    d = DECOMPOSERS[args.target](t, _labeling_arg(args.sigma, t), args.x)
    if args.format == "dot":
        return decomposition.decomposition_to_dot(d), True
    return itertools.chain(decomposition.decomposition_to_json(d), "\n"), True


def _certificate_eval(args):
    t = _tree_arg(args.tree)
    point = sigma_from_json(args.point)
    return {"value": str(certificate.eval_certificate(t, point))}, True


def _certificate_magnitude(args):
    rep = certificate.certificate_magnitude_check(lb.phi_orbits(_tree_arg(args.tree)))
    return {"ok": rep.ok, "expected": str(rep.expected), "phi_size": rep.phi_size}, rep.ok


def _certificate_nonzero(args):
    ok = certificate.nonvanishing_by_sweep(lb.phi_orbits(_tree_arg(args.tree))) is not None
    return {"nonzero": ok}, ok


def _certificate_invariance(args):
    rep = certificate.check_transposition_invariance(lb.phi_orbits(_tree_arg(args.tree)))
    return {
        "ok": rep.ok,
        "pairs": [list(p) for p in rep.pairs],
        "witness": list(rep.witness) if rep.witness else None,
    }, rep.ok


def _certificate_monomial_support(args):
    rep = certificate.check_monomial_support(args.n)
    return {"ok": rep.ok, "bases_checked": rep.bases_checked}, rep.ok


def _certificate_composition(args):
    rep = certificate.chain_report(_tree_arg(args.tree))
    return {
        "ok": rep.ok,
        "code": rep.code.hex(),
        "transitions": rep.transitions,
        "phi_nonempty": list(rep.phi_nonempty),
    }, rep.ok


def _group_example(args):
    sigma1 = groupaction.sigma_from_first_column([0, 3, 1])
    summary = groupaction.closure([sigma1])
    return {
        "sigma1": list(sigma1.sigma),
        "matrix": sigma1.matrix(),
        "order": summary.order,
        "cyclic": summary.cyclic,
    }, True


def _group_from_tree(args):
    t = _tree_arg(args.tree)
    ep = groupaction.sigma_from_labeled_tree(t, _labeling_arg(args.sigma, t))
    return {"n": ep.n, "sigma": list(ep.sigma)}, True


def _group_closure(args):
    gens = [groupaction.EntryPermutation(sigma_from_json(p)) for p in args.perm]
    group = groupaction.closure(gens)
    return {"order": group.order, "cyclic": group.cyclic, "closed": group.closed_ok}, True


def _apportion_check(args):
    t = _tree_arg(args.tree)
    rep = apportionment.check_apportionment(t, _labeling_arg(args.sigma, t))
    return {
        "ok": rep.ok,
        "kappa": rep.kappa,
        "kappa_max_error": rep.kappa_max_error,
        "unitary_residual": rep.unitary_residual,
    }, rep.ok


def _campaign_run(args):
    config = _json_arg(args.config)
    summary, _records = run_campaign(config, out_path=args.records, workers=args.workers)
    return summary, summary["all_pass"]


def _leaf(sub, name: str, handler, **kwargs) -> argparse.ArgumentParser:
    """A leaf command's parser, with the handler that runs it."""
    p = sub.add_parser(name, **kwargs)
    p.set_defaults(handler=handler)
    return p


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
    p_enum = _leaf(
        trees_sub, "enumerate", _trees_enumerate, help="one tree per isomorphism class"
    )
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--format", choices=("json", "dot"), default="json")
    p_enum.add_argument("--out")

    p_label = sub.add_parser("label", help="beta-labeling search and verification")
    label_sub = p_label.add_subparsers(dest="subcommand", required=True)
    p_find = _leaf(label_sub, "find", _label_find)
    p_find.add_argument("--tree", required=True)
    p_find.add_argument("--seed", type=int, help="search a random renumbering of the tree")
    p_find.add_argument("--out")
    p_verify = _leaf(label_sub, "verify", _label_verify)
    p_verify.add_argument("--tree", required=True)
    p_verify.add_argument("--sigma", required=True)
    p_phi = _leaf(label_sub, "phi", _label_phi)
    p_phi.add_argument("--tree", required=True)
    p_phi.add_argument("--out")

    p_dec = _leaf(sub, "decompose", _decompose, help="build and verify a decomposition")
    p_dec.add_argument("--tree", required=True)
    p_dec.add_argument("--target", choices=tuple(DECOMPOSERS), required=True)
    p_dec.add_argument("--x", type=int, default=1)
    p_dec.add_argument("--sigma", help="labeling JSON; searched when omitted")
    p_dec.add_argument("--format", choices=("json", "dot"), default="json")
    p_dec.add_argument("--out")

    p_cert = sub.add_parser("certificate", help="exact certificate operations")
    cert_sub = p_cert.add_subparsers(dest="subcommand", required=True)
    p_eval = _leaf(cert_sub, "eval", _certificate_eval)
    p_eval.add_argument("--tree", required=True)
    p_eval.add_argument("--point", required=True, help="JSON list in Z_n^n, or {\"sigma\": list}")
    p_mag = _leaf(cert_sub, "magnitude", _certificate_magnitude)
    p_mag.add_argument("--tree", required=True)
    p_nz = _leaf(cert_sub, "nonzero", _certificate_nonzero)
    p_nz.add_argument("--tree", required=True)
    p_inv = _leaf(cert_sub, "invariance", _certificate_invariance)
    p_inv.add_argument("--tree", required=True)
    p_ms = _leaf(cert_sub, "monomial-support", _certificate_monomial_support)
    p_ms.add_argument("--n", type=int, required=True)
    p_comp = _leaf(cert_sub, "composition", _certificate_composition)
    p_comp.add_argument("--tree", required=True)

    p_group = sub.add_parser("group", help="entry-permutation group actions")
    group_sub = p_group.add_subparsers(dest="subcommand", required=True)
    _leaf(group_sub, "example", _group_example)
    p_gft = _leaf(group_sub, "from-tree", _group_from_tree)
    p_gft.add_argument("--tree", required=True)
    p_gft.add_argument("--sigma")
    p_gcl = _leaf(group_sub, "closure", _group_closure)
    p_gcl.add_argument("--perm", action="append", required=True,
                       help="entry permutation as a JSON index array, or {\"sigma\": array} "
                       "(repeatable)")

    p_app = sub.add_parser("apportion", help="unitary apportionment checks")
    app_sub = p_app.add_subparsers(dest="subcommand", required=True)
    p_appc = _leaf(app_sub, "check", _apportion_check)
    p_appc.add_argument("--tree", required=True)
    p_appc.add_argument("--sigma")

    p_camp = sub.add_parser("campaign", help="batch sweeps over the catalog")
    camp_sub = p_camp.add_subparsers(dest="subcommand", required=True)
    p_run = _leaf(camp_sub, "run", _campaign_run)
    p_run.add_argument("--config", required=True, help="campaign JSON (inline or file)")
    p_run.add_argument("--out", dest="records", help="JSONL record path (overrides config)")
    p_run.add_argument("--workers", type=int)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; its output goes to --out or stdout as it is made, a JSON
    object as one line. --out is opened after the first part, so a refusal leaves it."""
    args = build_parser().parse_args(argv)
    code = 2  # a handler cut short by a closed pipe exits as any I/O error does
    try:
        output, ok = args.handler(args)
        code = 0 if ok else 1
        parts = iter((json.dumps(output), "\n") if isinstance(output, dict) else output)
        first = next(parts, "")
        out = getattr(args, "out", None)
        with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
            fh.write(first)
            fh.writelines(parts)
        return code
    except BrokenPipeError:
        # the reader left early (`| head`); devnull keeps the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except VerificationFailed as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 1
    except (TreeDecompError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
