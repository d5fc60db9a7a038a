"""Derandomized CLI fuzzing: every subcommand, run in-process by cli.main on
JSON arguments drawn from small valid examples with one mutation each, must
return 0, 1 or 2 within a deadline, raise nothing and print at most one
stderr line."""

import json
import random
import signal

import pytest

from treedecomp import from_parent_map, sigma_from_labeled_tree
from treedecomp.cli import main

# (parent map, a beta-labeling), n <= 12
_TREES = [
    ([0, 0, 1, 1], (0, 3, 1, 2)),
    ([0, 0, 0, 1, 1, 2, 5], (0, 6, 5, 3, 4, 1, 2)),
    ([0, 0, 1, 2, 0, 4, 4, 6], (0, 7, 4, 5, 6, 2, 1, 3)),
    ([0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10], (0, 11, 1, 10, 2, 9, 3, 8, 4, 7, 5, 6)),
]
_CONFIG = {"checks": ["beta", "phi", "k2n1", "magnitude"], "n": [1, 5], "x": [1, 2]}


def _tree(case):
    g, _ = case
    return {"n": len(g), "g": g}


def _sigma(case, rng):
    sigma = list(case[1])
    return {"sigma": sigma} if rng.random() < 0.5 else sigma


def _perm(case, rng):
    g, sigma = case
    ep = sigma_from_labeled_tree(from_parent_map(len(g), g), sigma)
    return {"n": ep.n, "sigma": list(ep.sigma)} if rng.random() < 0.5 else list(ep.sigma)


# Each command's argv as a function of a tree case and a Random; a non-str
# part is a JSON argument, the ones the fuzz mutates.
COMMANDS = {
    "label find": lambda c, r: ["label", "find", "--tree", _tree(c), "--seed", str(r.randrange(9))],
    "label verify": lambda c, r: ["label", "verify", "--tree", _tree(c), "--sigma", _sigma(c, r)],
    "label phi": lambda c, r: ["label", "phi", "--tree", _tree(c)],
    "decompose": lambda c, r: [
        "decompose", "--tree", _tree(c), "--sigma", _sigma(c, r),
        *r.choice((["--target", "knn"], ["--target", "k2n1", "--x", "2"],
                   ["--target", "knxnx", "--x", "2"], ["--format", "dot", "--target", "k2n1"])),
    ],
    "certificate eval": lambda c, r: [
        "certificate", "eval", "--tree", _tree(c), "--point", _sigma(c, r)
    ],
    "certificate magnitude": lambda c, r: ["certificate", "magnitude", "--tree", _tree(c)],
    "certificate nonzero": lambda c, r: ["certificate", "nonzero", "--tree", _tree(c)],
    "certificate invariance": lambda c, r: ["certificate", "invariance", "--tree", _tree(c)],
    "certificate composition": lambda c, r: ["certificate", "composition", "--tree", _tree(c)],
    "group from-tree": lambda c, r: [
        "group", "from-tree", "--tree", _tree(c), "--sigma", _sigma(c, r)
    ],
    "group closure": lambda c, r: [
        "group", "closure", "--perm", _perm(c, r), "--perm", _perm(c, r)
    ][: r.choice((4, 6))],
    "apportion check": lambda c, r: [
        "apportion", "check", "--tree", _tree(c), "--sigma", _sigma(c, r)
    ],
    "campaign run": lambda c, r: ["campaign", "run", "--config", _CONFIG],
}
# commands without a JSON argument, on small ints around their bounds
PLAIN = [
    ["group", "example"],
    *(["trees", "enumerate", "--n", n] for n in ("-1", "0", "1", "5", "19")),
    *(["certificate", "monomial-support", "--n", n] for n in ("-1", "0", "1", "3", "5")),
]
SWAPS = (True, 1.5, "x", None, -1, 10**6)


def _nodes(value, path=()):
    """(path, value) of value and of everything nested in it."""
    yield path, value
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for k, v in items:
        yield from _nodes(v, path + (k,))


def _replace(value, path, new):
    if not path:
        return new
    k, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, k: _replace(value[k], rest, new)}
    return [*value[:k], _replace(value[k], rest, new), *value[k + 1:]]


def mutate(value, rng: random.Random):
    """value with one mutation: a key dropped, an array and an object swapped,
    or a value swapped for a bool, float, string, null, nested array, negative
    int or out-of-range int."""
    nodes = list(_nodes(value))
    kind = rng.choice(("swap", "drop", "reshape"))
    dicts = [(p, v) for p, v in nodes if isinstance(v, dict) and v]
    containers = [(p, v) for p, v in nodes if isinstance(v, (dict, list))]
    if kind == "drop" and dicts:
        path, d = rng.choice(dicts)
        key = rng.choice(sorted(d))
        return _replace(value, path, {k: v for k, v in d.items() if k != key})
    if kind == "reshape" and containers:
        path, c = rng.choice(containers)
        swapped = list(c.values()) if isinstance(c, dict) else {str(i): v for i, v in enumerate(c)}
        return _replace(value, path, swapped)
    path, old = rng.choice(nodes)
    return _replace(value, path, rng.choice(SWAPS + ([old],)))


class Hang(Exception):
    pass


def _raise_hang(signum, frame):
    raise Hang("a CLI call ran past its deadline")


def run_main(capsys, argv, deadline=5.0):
    previous = signal.signal(signal.SIGALRM, _raise_hang)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _arg(value, tmp_path):
    """value as a CLI argument: inline when it reads as JSON there, else a file."""
    text = json.dumps(value)
    if text.startswith(("{", "[")):
        return text
    path = tmp_path / f"arg{len(list(tmp_path.iterdir()))}.json"
    path.write_text(text)
    return str(path)


def _check(capsys, argv):
    code, _, err = run_main(capsys, argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err and err.count("\n") <= 1, (argv, err)
    return code


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_valid_examples_pass(capsys, tmp_path, name):
    # unmutated, each command reaches its work: the two smallest trees pass
    # every one, while the larger two can be past the Phi cap or have no
    # sibling-leaf pair, which are usage errors
    rng = random.Random(name)
    for k, case in enumerate(_TREES):
        argv = [p if isinstance(p, str) else _arg(p, tmp_path) for p in COMMANDS[name](case, rng)]
        assert _check(capsys, argv) in ((0,) if k < 2 else (0, 2)), argv


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_one_mutation(capsys, tmp_path, name):
    rng = random.Random(name)
    for _ in range(12):
        parts = COMMANDS[name](rng.choice(_TREES), rng)
        target = rng.choice([i for i, p in enumerate(parts) if not isinstance(p, str)])
        argv = [
            p if isinstance(p, str) else _arg(mutate(p, rng) if i == target else p, tmp_path)
            for i, p in enumerate(parts)
        ]
        _check(capsys, argv)


@pytest.mark.parametrize("argv", PLAIN, ids=" ".join)
def test_plain_commands(capsys, argv):
    _check(capsys, argv)

