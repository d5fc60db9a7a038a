import hashlib
import json
import os
import resource
import subprocess
import sys
from unittest.mock import ANY

import pytest
from conftest import decomposition_from_json

from treedecomp import (
    Labeling,
    decompose_directed_knn,
    decomposition_to_json,
    eval_certificate,
    expected_magnitude,
    find_beta,
    from_parent_map,
    tree_from_json,
    tree_to_json,
    verify_beta,
)
from treedecomp import cli, decomposition, labeling, trees
from treedecomp.cli import (
    _campaign_record,
    main,
    run_campaign,
    sigma_from_json,
)
from treedecomp.errors import MalformedInput, TreeDecompError, VerificationFailed
from treedecomp.labeling import as_labeling

TREE4 = '{"n": 4, "g": [0, 0, 1, 1]}'
FIGURE = '{"n": 4, "g": [0, 3, 3, 0]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrees:
    def test_enumerate_json(self, capsys):
        code, out, _ = run(capsys, "trees", "enumerate", "--n", "4")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 2
        for obj in lines:
            tree_from_json(json.dumps(obj))

    def test_enumerate_dot(self, capsys):
        code, out, _ = run(capsys, "trees", "enumerate", "--n", "3", "--format", "dot")
        assert code == 0 and "digraph" in out

    def test_enumerate_to_file(self, capsys, tmp_path):
        path = tmp_path / "trees.jsonl"
        code, _, _ = run(capsys, "trees", "enumerate", "--n", "5", "--out", str(path))
        assert code == 0
        assert len(path.read_text().strip().splitlines()) == 3


class TestLabel:
    def test_find(self, capsys):
        code, out, _ = run(capsys, "label", "find", "--tree", TREE4)
        assert code == 0
        sigma = json.loads(out)["sigma"]
        t = tree_from_json(TREE4)
        assert isinstance(as_labeling(t, sigma_from_json(out)), Labeling)
        assert len(sigma) == 4

    def test_verify_good(self, capsys):
        code, out, _ = run(
            capsys, "label", "verify", "--tree", TREE4, "--sigma", '{"sigma":[0,3,2,1]}'
        )
        assert code == 0
        assert sorted(json.loads(out)["signed_labels"]) == [0, 1, 2, 3]

    def test_verify_bad_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "label", "verify", "--tree", TREE4, "--sigma", "[0,1,2,3]"
        )
        assert code == 1
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize(
        "sigma", ["[0, 1, 2, 3.5]", '{"sigma": [0, 3, 2, true]}', '[0, 3, 2, "1"]', '"0321"']
    )
    def test_non_integer_sigma_exit_two(self, capsys, sigma):
        code, out, err = run(capsys, "label", "verify", "--tree", TREE4, "--sigma", sigma)
        assert code == 2 and out == ""
        assert err.startswith("error") and err.count("\n") == 1

    def test_verify_sigma_from_file(self, capsys, tmp_path):
        path = tmp_path / "sigma.json"
        path.write_text('{"sigma": [0, 3, 2, 1]}')
        code, out, _ = run(
            capsys, "label", "verify", "--tree", TREE4, "--sigma", str(path)
        )
        assert code == 0 and json.loads(out)["ok"] is True

    def test_phi(self, capsys):
        code, out, _ = run(capsys, "label", "phi", "--tree", TREE4)
        assert code == 0
        obj = json.loads(out)
        assert obj["count"] == len(obj["phi"])

    def test_tree_from_file(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(TREE4)
        code, _, _ = run(capsys, "label", "find", "--tree", str(path))
        assert code == 0

    def test_malformed_tree_exit_two(self, capsys):
        code, _, err = run(capsys, "label", "find", "--tree", '{"n": 2, "g": [1, 0]}')
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "tree",
        ['{"n": "4", "g": [0, 0, 0, 0]}', '{"n": 4, "g": [0, 0.5, 0, 0]}', '{"n": 4, "g": 5}'],
    )
    def test_non_integer_tree_exit_two(self, capsys, tree):
        code, _, err = run(capsys, "label", "find", "--tree", tree)
        assert code == 2
        assert "error" in err


class TestDecompose:
    def test_knn_json(self, capsys):
        code, out, err = run(capsys, "decompose", "--tree", FIGURE, "--target", "knn")
        assert code == 0 and err == ""
        d = decomposition_from_json(out)
        assert len(d.copies) == 4

    def test_sigma_from_file(self, capsys, tmp_path):
        path = tmp_path / "sigma.json"
        path.write_text("[0, 3, 2, 1]")
        code, out, _ = run(
            capsys, "decompose", "--tree", TREE4, "--target", "knn", "--sigma", str(path)
        )
        assert code == 0
        assert decomposition_from_json(out).sigma == (0, 3, 2, 1)

    def test_missing_sigma_file_exit_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "decompose", "--tree", TREE4, "--target", "knn",
            "--sigma", str(tmp_path / "absent.json"),
        )
        assert code == 2 and "no such file" in err

    def test_verify_runs_partition_check_once(self, capsys, monkeypatch):
        calls = []
        real = decomposition.verify_partition
        monkeypatch.setattr(
            decomposition, "verify_partition", lambda d: calls.append(d) or real(d)
        )
        code, _, _ = run(capsys, "decompose", "--tree", TREE4, "--target", "k2n1")
        assert code == 0 and len(calls) == 1

    def test_k2n1_dot_frames(self, capsys):
        code, out, _ = run(
            capsys,
            "decompose", "--tree", '{"n": 2, "g": [0, 0]}',
            "--target", "k2n1", "--x", "1", "--format", "dot",
        )
        assert code == 0
        assert out.count("graph frame_") == 3

    def test_dot_above_the_cap_exit_two(self, capsys):
        # 1,928 frames of a 16-vertex path would take 27.9 M edge lines
        path16 = json.dumps({"n": 16, "g": [0] + list(range(15))})
        code, out, err = run(
            capsys,
            "decompose", "--tree", path16, "--target", "k2n1", "--x", "8", "--format", "dot",
        )
        assert code == 2 and out == "" and "cap" in err

    def test_json_above_the_cap_exit_two(self, capsys):
        # 300,100 copies of a 16-vertex path would list 4.5 M edges
        path16 = json.dumps({"n": 16, "g": [0] + list(range(15))})
        code, out, err = run(
            capsys,
            "decompose", "--tree", path16, "--target", "k2n1", "--x", "100", "--format", "json",
        )
        assert code == 2 and out == "" and "cap" in err

    def test_knxnx(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--tree", TREE4, "--target", "knxnx", "--x", "2"
        )
        assert code == 0
        assert len(json.loads(out)["copies"]) == 12

    def test_huge_x_refused_before_building(self):
        # 10^9 stretches of a 16-vertex path: refused from the host alone,
        # before a labeling is searched or a base is built
        path16 = json.dumps({"n": 16, "g": [0] + list(range(15))})
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "treedecomp.cli", "decompose", "--tree", path16,
             "--target", "k2n1", "--x", "1000000000", "--format", "json"],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.returncode == 2 and out.stdout == "" and "cap" in out.stderr

    @pytest.mark.parametrize("x", ["-5", "0", "2"])
    def test_knn_rejects_x_other_than_one(self, capsys, x):
        # directed K_{n,n} has no x; a value other than the default is a usage error
        code, out, err = run(
            capsys, "decompose", "--tree", TREE4, "--target", "knn", "--x", x
        )
        assert code == 2 and out == ""
        assert err.startswith("error") and err.count("\n") == 1


class TestCertificate:
    def test_eval(self, capsys):
        code, out, _ = run(
            capsys, "certificate", "eval", "--tree", '{"n":2,"g":[0,0]}',
            "--point", "[0,1]",
        )
        assert code == 0 and json.loads(out)["value"] == "2"

    @pytest.mark.parametrize("point", ["[0.5, 1, 2, 3]", "[0, 1, 2, true]", '[0, 1, 2, "3"]'])
    def test_eval_non_integer_point_exit_two(self, capsys, point):
        code, out, err = run(
            capsys, "certificate", "eval", "--tree", TREE4, "--point", point
        )
        assert code == 2 and out == ""
        assert err.startswith("error") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["5", "null", "true", "2.5"])
    def test_eval_point_not_an_array_exit_two(self, capsys, tmp_path, text):
        path = tmp_path / "point.json"
        path.write_text(text)
        code, out, err = run(
            capsys, "certificate", "eval", "--tree", TREE4, "--point", str(path)
        )
        assert code == 2 and out == ""
        assert err.startswith("error") and "Traceback" not in err

    def test_eval_reads_the_output_of_label_find(self, capsys, tmp_path):
        # label find prints {"sigma": [...]}, which --point takes as it is
        found = tmp_path / "found.json"
        assert run(capsys, "label", "find", "--tree", TREE4, "--out", str(found))[0] == 0
        code, out, _ = run(capsys, "certificate", "eval", "--tree", TREE4, "--point", str(found))
        assert code == 0 and abs(int(json.loads(out)["value"])) == expected_magnitude(4)

    def test_eval_past_the_eval_cap_exit_two(self, capsys):
        # a 50-vertex path at its snake labeling, a beta-labeling, where
        # |certificate| has 6,690 digits, past the default int-to-str limit
        n = 50
        g = [0] + list(range(n - 1))
        snake = [v // 2 if v % 2 == 0 else n - 1 - v // 2 for v in range(n)]
        assert isinstance(verify_beta(from_parent_map(n, g), snake), Labeling)
        code, out, err = run(
            capsys, "certificate", "eval", "--tree", json.dumps({"n": n, "g": g}),
            "--point", json.dumps(snake),
        )
        assert code == 2 and out == ""
        assert err == "error: n = 50 exceeds the evaluation cap 41\n"

    def test_magnitude(self, capsys):
        code, out, _ = run(capsys, "certificate", "magnitude", "--tree", TREE4)
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] and obj["expected"] == str(6 * 24 * 240 * 4320)

    def test_nonzero(self, capsys):
        code, out, _ = run(capsys, "certificate", "nonzero", "--tree", TREE4)
        assert code == 0 and json.loads(out)["nonzero"]

    def test_invariance(self, capsys):
        code, out, _ = run(capsys, "certificate", "invariance", "--tree", TREE4)
        assert code == 0 and json.loads(out)["ok"]

    def test_monomial_support(self, capsys):
        code, out, _ = run(capsys, "certificate", "monomial-support", "--n", "3")
        assert code == 0 and json.loads(out)["bases_checked"] == 6

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_monomial_support_empty_exit_two(self, capsys, n):
        code, out, err = run(capsys, "certificate", "monomial-support", "--n", n)
        assert code == 2 and out == "" and err.startswith("error")

    def test_huge_monomial_support_refused_before_work(self):
        # n = 10^9 is refused before the permutations of range(n) are built;
        # the address-space limit turns a regression into a MemoryError
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "treedecomp.cli", "certificate", "monomial-support",
             "--n", "1000000000"],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)),
        )
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == "error: n = 1000000000 exceeds the symbolic cap 4\n"

    def test_composition(self, capsys):
        code, out, _ = run(capsys, "certificate", "composition", "--tree", TREE4)
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "ok": True,
            "code": trees.canonical_code(tree_from_json(TREE4)).hex(),
            "transitions": 1,  # the star rooted at a leaf: one collapse
            "phi_nonempty": [True, True],
        }


class TestGroup:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "group", "example")
        assert code == 0
        obj = json.loads(out)
        assert obj["matrix"] == [[0, 5, 2], [3, 4, 6], [1, 7, 8]]
        assert obj["order"] == 3

    def test_from_tree(self, capsys):
        code, out, _ = run(capsys, "group", "from-tree", "--tree", FIGURE)
        assert code == 0
        assert json.loads(out)["sigma"][0] == 0

    def test_from_tree_past_the_entry_cap_refused_before_work(self, tmp_path):
        # a 20,000-vertex path with its snake labeling would need 4 * 10^8
        # entries; the address-space limit turns a regression into a MemoryError
        n = 20000
        tree, sigma = tmp_path / "tree.json", tmp_path / "sigma.json"
        tree.write_text(json.dumps({"n": n, "g": [0] + list(range(n - 1))}))
        sigma.write_text(json.dumps([v // 2 if v % 2 == 0 else n - 1 - v // 2 for v in range(n)]))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "treedecomp.cli", "group", "from-tree", "--tree", str(tree),
             "--sigma", str(sigma)],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)),
        )
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == (
            "error: n = 20000 needs 400000000 entries, past the entry cap 2000000\n"
        )

    def test_closure(self, capsys):
        sigma1 = [0, 5, 2, 3, 4, 6, 1, 7, 8]
        code, out, _ = run(capsys, "group", "closure", "--perm", json.dumps(sigma1))
        assert code == 0
        assert json.loads(out)["order"] == 3

    def test_closure_reads_the_output_of_from_tree(self, capsys, tmp_path):
        # group from-tree prints {"n": ..., "sigma": [...]}, which --perm
        # takes as it is
        code, out, _ = run(capsys, "group", "from-tree", "--tree", TREE4)
        assert code == 0
        entry_perm = tmp_path / "entry_perm.json"
        entry_perm.write_text(out)
        code, out, _ = run(capsys, "group", "closure", "--perm", str(entry_perm))
        assert code == 0 and json.loads(out) == {"order": 4, "cyclic": True, "closed": True}

    def test_closure_of_a_long_cycle_refused_by_the_entry_bound(self, tmp_path):
        # the cycle (1 2 ... 159999) on the entries of a 400 x 400 matrix: its
        # chain would store 159,999 transversal elements of 160,000 entries
        # each; the address-space limit turns a regression into a MemoryError
        degree = 400 * 400
        perm = tmp_path / "perm.json"
        perm.write_text(json.dumps([0] + list(range(2, degree)) + [1]))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "treedecomp.cli", "group", "closure", "--perm", str(perm)],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)),
        )
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == "error: the chain outgrew 20000000 entries\n"

    def test_closure_of_a_repeated_generator_within_the_address_space(self, tmp_path):
        # the transposition (1 2) on the entries of a 400 x 400 matrix, given
        # 40 times: all 1,600 products of 160,000 entries held at once ran out
        # of the address space with a MemoryError traceback
        degree = 400 * 400
        perm = tmp_path / "perm.json"
        perm.write_text(json.dumps([0, 2, 1] + list(range(3, degree))))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "treedecomp.cli", "group", "closure",
             *["--perm", str(perm)] * 40],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)),
        )
        assert out.returncode == 0 and out.stderr == ""
        assert json.loads(out.stdout) == {"order": 2, "cyclic": True, "closed": True}

    @pytest.mark.parametrize(
        "perm", ["[0, 0, 0, 0]", "[1, 0, 2, 3]", "[0, 1, 2]", "[0, 1.0, 2, 3]", '{"a": 1}']
    )
    def test_closure_rejects_non_permutation(self, capsys, perm):
        # closure never terminates on a non-permutation, so the CLI must refuse it
        code, out, err = run(capsys, "group", "closure", "--perm", perm)
        assert code == 2 and out == "" and err.startswith("error:")


class TestApportion:
    def test_single_tree(self, capsys):
        code, out, _ = run(capsys, "apportion", "check", "--tree", FIGURE)
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] and obj["kappa"] == 0.25

    def test_tree_past_the_old_cap_passes(self, capsys):
        # a 2,001-vertex path with its snake labeling; --sigma skips the
        # search and its cap
        n = 2001
        path = json.dumps({"n": n, "g": [0] + list(range(n - 1))})
        snake = json.dumps([v // 2 if v % 2 == 0 else n - 1 - v // 2 for v in range(n)])
        code, out, _ = run(capsys, "apportion", "check", "--tree", path, "--sigma", snake)
        assert code == 0
        assert json.loads(out) == {
            "ok": True, "kappa": 1 / n, "kappa_max_error": 0.0, "unitary_residual": 0.0,
        }

    def test_sweep(self, capsys):
        # the catalog sweep is a campaign of the apportion check
        config = '{"checks": ["apportion"], "n": [1, 4]}'
        code, out, _ = run(capsys, "campaign", "run", "--config", config)
        assert code == 0
        obj = json.loads(out)
        assert obj["all_pass"] and obj["records"] == 5

    @pytest.mark.parametrize("sigma", ["[9,9]", "[0, 3, 2, 1]"])
    def test_sigma_without_tree_exit_two(self, capsys, sigma):
        with pytest.raises(SystemExit) as exc:
            main(["apportion", "check", "--sigma", sigma])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "required: --tree" in captured.err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize(
        "target", [["--tree", FIGURE], ["--tree", TREE4, "--sigma", "[0, 3, 2, 1]"]]
    )
    def test_bad_tolerance_exit_two(self, capsys, target, tol):
        # the check is exact, so every --tol is refused as an unknown flag
        with pytest.raises(SystemExit) as exc:
            main(["apportion", "check", *target, "--tol", tol])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --tol" in captured.err


class TestCampaign:
    def test_small_campaign_all_pass(self, capsys, tmp_path):
        out_path = tmp_path / "records.jsonl"
        config = {
            "checks": ["beta", "knn", "k2n1", "magnitude"],
            "n": [1, 5],
            "x": [1, 2],
            "out": str(out_path),
        }
        code, out, _ = run(capsys, "campaign", "run", "--config", json.dumps(config))
        assert code == 0
        summary = json.loads(out)
        assert summary["all_pass"] and summary["records"] == 8
        records = [json.loads(l) for l in out_path.read_text().strip().splitlines()]
        assert len(records) == 8
        mag = [r["checks"]["magnitude"] for r in records if r["n"] == 4]
        assert {m["expected"] for m in mag} == {str(6 * 24 * 240 * 4320)}
        assert all(r["search_ms"] >= 0 for r in records)

    def test_empty_checks(self, capsys):
        code, out, _ = run(capsys, "campaign", "run", "--config", '{"checks": [], "n": 2}')
        assert code == 0
        assert json.loads(out)["all_pass"]

    def test_append_only(self, tmp_path):
        out_path = tmp_path / "records.jsonl"
        config = {"checks": ["beta"], "n": 3}
        run_campaign(config, out_path=str(out_path))
        run_campaign(config, out_path=str(out_path))
        assert len(out_path.read_text().strip().splitlines()) == 2

    def test_records_made_before_a_failure_stay_in_the_file(self, monkeypatch, tmp_path):
        config = {"checks": ["beta"], "n": [1, 5]}
        _, whole = run_campaign(config)
        made = []

        def third_fails(task):
            if len(made) == 2:
                raise RuntimeError("third task")
            made.append(task)
            return _campaign_record(task)

        monkeypatch.setattr(cli, "_campaign_record", third_fails)
        out_path = tmp_path / "records.jsonl"
        with pytest.raises(RuntimeError, match="third task"):
            run_campaign(config, out_path=str(out_path))
        written = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert _record_digest(written) == _record_digest(whole[:2])

    def test_workers_match_serial(self, tmp_path):
        config = {"checks": ["beta", "nonzero"], "n": [1, 5]}
        _, serial = run_campaign(config, workers=1)
        _, parallel = run_campaign(config, workers=2)
        strip = lambda recs: [
            {
                "tree_code": r["tree_code"],
                "checks": {k: v["pass"] for k, v in r["checks"].items()},
            }
            for r in recs
        ]
        assert strip(serial) == strip(parallel)

    def test_unknown_check_rejected(self, capsys):
        code, _, err = run(capsys, "campaign", "run", "--config", '{"checks": ["nope"]}')
        assert code == 2

    def test_unhashable_check_name_rejected(self, capsys):
        code, out, err = run(capsys, "campaign", "run", "--config", '{"checks": [[1]]}')
        assert code == 2 and out == "" and err.startswith("error")

    @pytest.mark.parametrize(
        "config",
        [
            "[1]",
            "[]",
            '{"workers": "x"}',
            '{"workers": 1.5}',
            '{"checks": 5}',
            '{"out": 2.5}',
            '{"checks": ["beta"], "n": [5, 3]}',
            '{"checks": ["k2n1", "knxnx"], "n": 3, "x": [2, 1]}',
            '{"checks": ["beta"], "n": [true, 2]}',
            '{"checks": ["beta"], "n": true}',
            '{"checks": ["k2n1"], "n": 3, "x": true}',
            '{"checks": ["beta"], "n": 2, "workers": 0}',
            '{"check": ["beta", "knn"], "n": [1, 4]}',
            '{"checks": ["beta"], "n": 2, "x": [0, 1]}',
        ],
    )
    def test_bad_config_exit_two(self, capsys, config):
        code, out, err = run(capsys, "campaign", "run", "--config", config)
        assert code == 2 and out == ""
        assert err.startswith("error") and err.count("\n") == 1

    def test_n_past_the_enumeration_cap_refused_before_enumerating(self, capsys, monkeypatch):
        def fail(n):
            raise AssertionError(f"catalog {n} enumerated")

        monkeypatch.setattr(trees, "enumerate_free_trees", fail)
        code, out, err = run(capsys, "campaign", "run", "--config", '{"checks": [], "n": [1, 19]}')
        assert code == 2 and out == "" and "enumeration cap" in err

    def test_x_past_the_export_cap_refused_before_enumerating(self):
        # a million stretches of K_{2nx+1}: refused by decompose's export
        # bound on the span's top host, before any catalog is enumerated
        src = os.path.dirname(os.path.dirname(cli.__file__))
        probe = (
            "import sys; from treedecomp import cli, trees\n"
            "def fail(n):\n"
            "    raise AssertionError(f'catalog {n} enumerated')\n"
            "trees.enumerate_free_trees = fail\n"
            "sys.exit(cli.main(sys.argv[1:]))"
        )
        config = '{"checks": ["k2n1"], "n": [3, 3], "x": [1, 1000000]}'
        out = subprocess.run(
            [sys.executable, "-c", probe, "campaign", "run", "--config", config],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.returncode == 2 and out.stdout == "" and "cap" in out.stderr

    def test_span_is_not_materialized(self):
        span = cli._span([1, 10**18])
        assert isinstance(span, range) and len(span) == 10**18
        assert (span[0], span[-1]) == (1, 10**18)
        assert cli._span(5) == range(5, 6)

    def test_workers_bad_flag_exit_two(self, capsys):
        config = '{"checks": ["beta"], "n": 2}'
        code, out, err = run(capsys, "campaign", "run", "--config", config, "--workers", "0")
        assert code == 2 and out == "" and err.startswith("error")

    @pytest.mark.parametrize(
        "n,workers,sizes",
        [([1, 4], 64, [4]), ([1, 4], 2, [2]), (3, 8, []), ([1, 6], 10**6, [4])],
    )
    def test_pool_no_larger_than_the_task_list(self, monkeypatch, n, workers, sizes):
        # nor than the CPU count: no real process is started here
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        asked = []

        class FakePool:  # records the size; runs the tasks in this process
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, tasks):
                return [fn(task) for task in tasks]

        monkeypatch.setattr(cli, "Pool", FakePool)
        summary, _ = run_campaign({"checks": ["beta"], "n": n}, workers=workers)
        want = sum(1 for k in cli._span(n) for _ in trees.enumerate_free_trees(k))
        assert summary["records"] == want and asked == sizes

    def test_record_above_search_cap_is_skipped(self):
        # A 17-vertex path is over find_beta's cap; the record still comes back.
        record = _campaign_record((17, [0] + list(range(16)), "00", ["beta", "knn"], [1]))
        assert record["labeling"] is None
        for result in record["checks"].values():
            assert result["pass"] is None and result["skipped"]
            assert "cap" in result["reason"]

    @pytest.mark.parametrize(
        "checks,searches",
        [(["phi", "magnitude", "nonzero", "invariance"], 1), (["beta", "knn"], 0)],
    )
    def test_one_all_mode_search_per_record(self, monkeypatch, checks, searches):
        modes = []
        search = labeling._search

        def counted(t, first):
            modes.append(first)
            return search(t, first)

        monkeypatch.setattr(labeling, "_search", counted)
        # nine vertices with a sibling-leaf pair, so invariance runs
        record = _campaign_record((9, [0, 0, 0, 0, 1, 1, 2, 3, 3], "00", checks, [1]))
        assert modes.count(False) == searches and modes.count(True) == 1
        assert all(res["pass"] for res in record["checks"].values())

    def test_records_say_what_they_computed(self):
        record = _campaign_record(
            (4, [0, 0, 1, 1], "00", ["phi", "nonzero", "invariance"], [1])
        )
        checks = record["checks"]
        assert (checks["phi"]["phi_size"], checks["phi"]["orbits"]) == (6, 3)
        witness = checks["nonzero"]["witness"]
        assert eval_certificate(from_parent_map(4, [0, 0, 1, 1]), witness) != 0
        assert checks["invariance"] == {"pass": True, "residual": None, "runtime_ms": ANY}

    def test_records_count_their_search_nodes(self):
        g = [0, 0, 1, 2, 2, 1, 1, 0, 7, 8, 8, 7, 0, 0]
        record = _campaign_record((14, g, "00", ["beta", "phi"], [1]))
        assert record["search_nodes"] == labeling._search(from_parent_map(14, g), True)[1]
        above_cap = _campaign_record((17, [0] + list(range(16)), "00", ["beta"], [1]))
        assert above_cap["search_nodes"] == 0

    def test_decomposition_checks_call_the_module_builders(self, monkeypatch):
        # a patch of decomposition.decompose_k2n1 (a timing span) sees the
        # campaign's builds, one per x, and directed K_{n,n}'s one build
        calls = []
        for name in ("decompose_directed_knn", "decompose_k2n1", "decompose_knxnx"):
            build = getattr(decomposition, name)

            def counted(t, lab, *x, name=name, build=build):
                calls.append((name, *x))
                return build(t, lab, *x)

            monkeypatch.setattr(decomposition, name, counted)
        checks = ["knn", "k2n1", "knxnx"]
        record = _campaign_record((4, [0, 0, 1, 1], "00", checks, [1, 2]))
        assert all(res["pass"] for res in record["checks"].values())
        assert calls == [
            ("decompose_directed_knn",),
            ("decompose_k2n1", 1), ("decompose_k2n1", 2),
            ("decompose_knxnx", 1), ("decompose_knxnx", 2),
        ]

    def test_skipped_checks_recorded(self):
        # invariance needs a sibling-leaf pair; the 3-path has none
        summary, records = run_campaign({"checks": ["invariance"], "n": 2})
        assert summary["skipped"] == 1
        assert records[0]["checks"]["invariance"]["pass"] is None
        # the one-vertex tree has no edges, and the builders refuse it
        summary, records = run_campaign({"checks": ["k2n1", "knxnx"], "n": 1})
        assert summary["skipped"] == 2
        assert [res["reason"] for res in records[0]["checks"].values()] == ["tree has no edges"] * 2


ALL_CHECKS = [
    "beta", "graceful", "phi", "knn", "k2n1", "knxnx",
    "magnitude", "nonzero", "invariance", "composition", "allones", "apportion",
]


def _record_digest(records, drop=()) -> str:
    """SHA-256 over the campaign records with their timings dropped, and
    with each (check, field) pair in drop."""
    lines = []
    for r in records:
        r = {k: v for k, v in r.items() if k != "search_ms"}
        r["checks"] = {
            name: {k: v for k, v in res.items() if k != "runtime_ms" and (name, k) not in drop}
            for name, res in r["checks"].items()
        }
        lines.append(json.dumps(r))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestGoldenRecords:
    # Pinned so that a change to any check's record, not only to its pass, shows.
    def test_all_checks_n_up_to_seven(self):
        summary, records = run_campaign({"checks": ALL_CHECKS, "n": [1, 7], "x": [1, 2]})
        assert summary["records"] == 25 and summary["skipped"] == 11
        assert _record_digest(records) == (
            "aa4ceeb7407e3c6e47681d4539f79d21dfdaa043b329c787c1fc87daef52dd07"
        )
        # Pinned without the apportion residual as well, so that a change to
        # any other field shows apart from it.
        assert _record_digest(records, drop={("apportion", "residual")}) == (
            "5ded7cca1a2dcd5fe936960f685d99a4ffa680298fb594e62671fb39581bac70"
        )


class TestExportRoundTrip:
    def test_tree(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        assert tree_from_json(tree_to_json(t)) == t

    def test_labeling(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        lab = find_beta(t, "first")
        text = json.dumps({"sigma": list(lab.sigma)})
        assert as_labeling(t, sigma_from_json(text)) == lab
        assert sigma_from_json(text) == lab.sigma

    def test_decomposition(self):
        t = from_parent_map(4, [0, 3, 3, 0])
        d = decompose_directed_knn(t, (0, 1, 2, 3))
        assert decomposition_from_json("".join(decomposition_to_json(d))) == d

    def test_bad_sigma_json(self):
        with pytest.raises(MalformedInput):
            sigma_from_json("{bad")


class TestExitCodes:
    @pytest.mark.parametrize(
        "error", TreeDecompError.__subclasses__() + [TreeDecompError, OSError]
    )
    def test_one_rule_for_every_error(self, capsys, monkeypatch, error):
        def fail(n):
            raise error("boom")

        monkeypatch.setattr(trees, "enumerate_free_trees", fail)
        code, out, err = run(capsys, "trees", "enumerate", "--n", "1")
        assert code == (1 if error is VerificationFailed else 2)
        assert out == "" and err.endswith("boom\n") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["trees", "enumerate", "--n", "19"],
            ["decompose", "--tree", json.dumps({"n": 16, "g": [0] + list(range(15))}),
             "--target", "k2n1", "--x", "8", "--format", "dot"],
        ],
        ids=["enumerate", "decompose"],
    )
    def test_refused_command_leaves_out_as_it_was(self, capsys, tmp_path, argv):
        # enumerate_free_trees refuses n = 19 only when its first part is made
        path = tmp_path / "out.txt"
        path.write_bytes(b"earlier output\n")
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == 2 and out == "" and "cap" in err
        assert path.read_bytes() == b"earlier output\n"

    def test_reader_that_stops_early_ends_the_run_quietly(self):
        # the reader takes one of the 7,741 lines and closes both pipes, so
        # the writer meets a broken pipe mid-stream; it exits with the
        # command's own code and writes nothing to stderr
        src = os.path.dirname(os.path.dirname(cli.__file__))
        with subprocess.Popen(
            [sys.executable, "-m", "treedecomp.cli", "trees", "enumerate", "--n", "15"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            code = proc.wait(timeout=60)
        assert json.loads(first)["n"] == 15
        assert code == 0 and err == b""

    def test_json_decode_error_exit_two(self, capsys):
        code, out, err = run(capsys, "campaign", "run", "--config", "{")
        assert code == 2 and out == "" and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["label", "find", "--tree"],
            ["label", "verify", "--tree", TREE4, "--sigma"],
            ["certificate", "eval", "--tree", TREE4, "--point"],
            ["group", "closure", "--perm"],
            ["campaign", "run", "--config"],
        ],
        ids=["tree", "sigma", "point", "perm", "config"],
    )
    @pytest.mark.parametrize(
        "data",
        [b"[" * 200_000 + b"]" * 200_000, b"1" * 5_000, b"\xff[1]"],
        ids=["nested-array", "long-integer", "not-utf8"],
    )
    def test_json_that_does_not_load_exit_two(self, capsys, tmp_path, argv, data):
        # json.loads raises RecursionError on the first and ValueError (the
        # 4,300-digit conversion limit) on the second, neither a JSONDecodeError;
        # reading the third file raises UnicodeDecodeError
        path = tmp_path / "input.json"
        path.write_bytes(data)
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: bad ") and err.count("\n") == 1


class TestNoLabelingFound:
    # Criterion 01 finds a labeling for every tree up to 10 vertices, so the
    # search is stubbed to reach this path.
    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--tree", TREE4, "--target", "knn"],
            ["group", "from-tree", "--tree", TREE4],
            ["apportion", "check", "--tree", TREE4],
        ],
    )
    def test_exit_one(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(labeling, "find_beta", lambda t, mode: None)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "verification failed: no beta-labeling found\n"

    def test_campaign_records_the_failure(self, monkeypatch):
        monkeypatch.setattr(labeling, "find_beta", lambda t, mode: None)
        record = _campaign_record((4, [0, 0, 1, 1], "00", ALL_CHECKS, [1]))
        assert record["labeling"] is None
        for result in record["checks"].values():
            assert result["pass"] is False
            assert result["detail"] == "no beta-labeling found"


class TestFaultySearch:
    # find_beta re-checks every sigma the search returns; the stub returns the
    # identity, which is not a beta-labeling of TREE4.
    @pytest.fixture(autouse=True)
    def identity_search(self, monkeypatch):
        monkeypatch.setattr(
            labeling, "_search", lambda t, first: ([tuple(range(t.n))], 0)
        )

    def test_label_find_exit_one(self, capsys):
        code, out, err = run(capsys, "label", "find", "--tree", TREE4)
        assert code == 1 and out == ""
        assert err.startswith("verification failed: search returned a non-beta sigma")
        assert err.count("\n") == 1

    def test_campaign_records_the_failure(self):
        record = _campaign_record((4, [0, 0, 1, 1], "00", ["beta", "knn"], [1]))
        assert record["labeling"] is None
        for result in record["checks"].values():
            assert result["pass"] is False
            assert "non-beta sigma" in result["detail"]


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


STAR10 = json.dumps({"n": 10, "g": [0] * 10})
PATH5 = '{"n": 5, "g": [0, 0, 1, 2, 3]}'
PATH17 = json.dumps({"n": 17, "g": [0] + list(range(16))})
SPIDER5 = '{"n": 5, "g": [0, 0, 0, 1, 1]}'
SIGMA1 = "[0, 5, 2, 3, 4, 6, 1, 7, 8]"
S15_TRANSPOSITION = json.dumps([0, 2, 1] + list(range(3, 16)))
S15_CYCLE = json.dumps([0] + list(range(2, 16)) + [1])
EMPTY = hashlib.sha256(b"").hexdigest()

# name -> (argv, exit code, SHA-256 of stdout followed by the {out} file).
# {records} is a campaign's JSONL path, whose records carry timings, so it is
# not hashed; nor is stderr.
GOLDEN_CLI = {
    "version": (
        ["--version"],
        0,
        "e9dd8507f4bf0c6f42458e41aea833ad0bd3f6127272335eee9bf4d58541ed67",
    ),
    "no-command": ([], 2, EMPTY),
    "trees-json": (
        ["trees", "enumerate", "--n", "5"],
        0,
        "eb264856deda514b43d5b2a84d3c378e294a3a72a085cf32d75e08d52450152e",
    ),
    "trees-dot": (
        ["trees", "enumerate", "--n", "4", "--format", "dot"],
        0,
        "977af0002b2a8a7eaf18c22839a365106abdc3a1e655f12e4ca13758f4ff7e36",
    ),
    "trees-out": (
        ["trees", "enumerate", "--n", "6", "--out", "{out}"],
        0,
        "635e8306ee84b3fd097691500129f233014d56be6abf93c70fc2d5a469332e0a",
    ),
    "trees-zero": (["trees", "enumerate", "--n", "0"], 2, EMPTY),
    "trees-cap": (["trees", "enumerate", "--n", "19"], 2, EMPTY),
    "trees-format": (["trees", "enumerate", "--n", "3", "--format", "yaml"], 2, EMPTY),
    "find": (
        ["label", "find", "--tree", TREE4],
        0,
        "449b72896758e77514b8949c21226797092fa5009aef078873f7e7080c3e8d7e",
    ),
    # seed 0 renumbers the spider's siblings: [0, 4, 2, 3, 1], not the
    # unseeded [0, 4, 2, 1, 3]
    "find-seed": (
        ["label", "find", "--tree", SPIDER5, "--seed", "0"],
        0,
        "149ff1f545e2b35d9bbb45b2e733daae1db41ef266103c94a8ed334f5049ad0d",
    ),
    "find-out": (
        ["label", "find", "--tree", SPIDER5, "--out", "{out}"],
        0,
        "2509c52de9e213522ac7225b32d1fd39289502ce86aee8ebd4edcf8b17ec4d55",
    ),
    "find-cap": (["label", "find", "--tree", json.dumps({"n": 17, "g": [0] * 17})], 2, EMPTY),
    "find-not-tree": (["label", "find", "--tree", '{"n": 2, "g": [1, 0]}'], 2, EMPTY),
    "verify": (
        ["label", "verify", "--tree", TREE4, "--sigma", "[0, 3, 2, 1]"],
        0,
        "207256fb2c03d9990e67fa7f9350b34d90a32caf19eb26cb3fd59fd8d54aafb9",
    ),
    "verify-bad": (
        ["label", "verify", "--tree", TREE4, "--sigma", "[0, 1, 2, 3]"],
        1,
        "b1b5a987917ed4673550538e44b57b6618862d76dce77435c86d18ef642de5c1",
    ),
    "verify-short": (["label", "verify", "--tree", TREE4, "--sigma", "[0, 1]"], 2, EMPTY),
    "phi": (
        ["label", "phi", "--tree", SPIDER5],
        0,
        "a3e85f8ca5ae9822a8bf52188e0f21944fec6dff06fdbe3e3c8e1959772ab0e6",
    ),
    "phi-out": (
        ["label", "phi", "--tree", FIGURE, "--out", "{out}"],
        0,
        "ce1fd3e443e3b0fa5a97bb3de5c932752e8aa07e724c895ec72527b786eaf683",
    ),
    "phi-cap": (["label", "phi", "--tree", STAR10], 2, EMPTY),
    # decompose always verifies its partition; there is no --verify
    "knn": (
        ["decompose", "--tree", FIGURE, "--target", "knn"],
        0,
        "a1a28a64257dd49aeb10d9c33ccd268f939a04afe94dc3e53470238e02dcfb3c",
    ),
    "knn-sigma": (
        ["decompose", "--tree", TREE4, "--target", "knn", "--sigma", "[0, 3, 2, 1]"],
        0,
        "7419297799bcf96ec99a8be493781b0027566f8df445a3b3b42c7e007af0f2dc",
    ),
    "knn-not-beta": (
        ["decompose", "--tree", TREE4, "--target", "knn", "--sigma", "[0, 1, 2, 3]"],
        2,
        EMPTY,
    ),
    "k2n1-dot": (
        ["decompose", "--tree", PATH5, "--target", "k2n1", "--x", "2", "--format", "dot"],
        0,
        "02360f5e3f5a4bb0238f52efa69596aca6ab5000d5fdfa24c56958d8e52a3483",
    ),
    "knxnx-out": (
        ["decompose", "--tree", TREE4, "--target", "knxnx", "--x", "2", "--out", "{out}"],
        0,
        "01c124618f5188724293508f6eef50a56815b30506be316fc179436f47cbde03",
    ),
    "k2n1-one-vertex": (
        ["decompose", "--tree", '{"n": 1, "g": [0]}', "--target", "k2n1"],
        2,
        EMPTY,
    ),
    "knxnx-x-zero": (
        ["decompose", "--tree", TREE4, "--target", "knxnx", "--x", "0"],
        2,
        EMPTY,
    ),
    "decompose-target": (["decompose", "--tree", TREE4, "--target", "k5"], 2, EMPTY),
    "eval": (
        ["certificate", "eval", "--tree", TREE4, "--point", "[0, 3, 2, 1]"],
        0,
        "a4dda9cc2224212e15dd6a5469bf5d27f0d748e6885c215944d62dfa9760d001",
    ),
    "eval-zero": (
        ["certificate", "eval", "--tree", TREE4, "--point", "[0, 0, 2, 1]"],
        0,
        "848764aca4b1f0f83e39cfe42a00b726cbe045450bef87d62b9955bfe52e07fe",
    ),
    "eval-bad": (
        ["certificate", "eval", "--tree", TREE4, "--point", "[0, 4, 2, 1]"],
        2,
        EMPTY,
    ),
    "magnitude": (
        ["certificate", "magnitude", "--tree", SPIDER5],
        0,
        "ff91863335db4d3465c5fe43040a9474bb25c9bdf9b67762d7a09f2cde0f23bb",
    ),
    "magnitude-cap": (["certificate", "magnitude", "--tree", STAR10], 2, EMPTY),
    "nonzero": (
        ["certificate", "nonzero", "--tree", PATH5],
        0,
        "d89c486b1089a7e75810ab7f56b18beb2bf8a6603355c022a55f1ca5d28dd2a2",
    ),
    # no --full-lattice: the certificate vanishes off S_n, so the permutation
    # sweep already gives the full lattice's answer
    "nonzero-lattice": (
        ["certificate", "nonzero", "--tree", TREE4, "--full-lattice"],
        2,
        EMPTY,
    ),
    "nonzero-cap": (["certificate", "nonzero", "--tree", STAR10], 2, EMPTY),
    "invariance": (
        ["certificate", "invariance", "--tree", TREE4],
        0,
        "a72fe010041a6887ab7cf672fca3558b263827ad50f4573cdcfdb31666454952",
    ),
    # Claim I at the orbit representatives, past the symbolic cap (n > 4)
    "invariance-no-table": (
        ["certificate", "invariance", "--tree", SPIDER5],
        0,
        "cb8431c2b5d204b81636a458fea5c87963ff77bebdace177acd2c5b8ea3b9f4b",
    ),
    "invariance-no-pair": (["certificate", "invariance", "--tree", PATH5], 2, EMPTY),
    "invariance-cap": (["certificate", "invariance", "--tree", STAR10], 2, EMPTY),
    "monomial-support": (
        ["certificate", "monomial-support", "--n", "3"],
        0,
        "91851c6bbcc6e53430452a1ab149e8091dbf4a9aebc43f1300cf5c24cf1f9e2f",
    ),
    "monomial-support-zero": (["certificate", "monomial-support", "--n", "0"], 2, EMPTY),
    "monomial-support-cap": (["certificate", "monomial-support", "--n", "5"], 2, EMPTY),
    "composition": (
        ["certificate", "composition", "--tree", PATH5],
        0,
        "2e2dcb397a72e611e4af0a9ad0cb828b6ca505912308941e52cc299363532846",
    ),
    # one tree per call, refused above labeling.SEARCH_CAP
    "composition-cap": (["certificate", "composition", "--tree", PATH17], 2, EMPTY),
    # the catalog sweep is a campaign of the composition check
    "composition-n": (["certificate", "composition", "--n", "5"], 2, EMPTY),
    "group-example": (
        ["group", "example"],
        0,
        "33a56f23a8d11f922a283e34decce0a346222e129ce1e124a63542015892ec50",
    ),
    # the example has no --n: n = 3 is its only size
    "group-example-n3": (
        ["group", "example", "--n", "3"],
        2,
        EMPTY,
    ),
    "group-example-n4": (["group", "example", "--n", "4"], 2, EMPTY),
    "from-tree": (
        ["group", "from-tree", "--tree", FIGURE],
        0,
        "44497261bf03580347f7a2c91924fe6f1d9cf057c580777e87c5e6e55da0a5c4",
    ),
    "from-tree-sigma": (
        ["group", "from-tree", "--tree", TREE4, "--sigma", "[0, 3, 2, 1]"],
        0,
        "44497261bf03580347f7a2c91924fe6f1d9cf057c580777e87c5e6e55da0a5c4",
    ),
    "closure": (
        ["group", "closure", "--perm", SIGMA1],
        0,
        "c5200ec4ab4befcc2cd68351f3ffc6ee56305a9b545879696d238932db8ff320",
    ),
    "closure-two": (
        ["group", "closure", "--perm", SIGMA1, "--perm", "[0, 2, 1, 3, 5, 4, 6, 8, 7]"],
        0,
        "f6889bffef53bedb26a5fd6eed7927246b7d179db62dea4afc2539f1ad5dca77",
    ),
    # (1 2) and the 15-cycle on 1..15 generate S_15, order 15!
    "closure-s15": (
        ["group", "closure", "--perm", S15_TRANSPOSITION, "--perm", S15_CYCLE],
        0,
        "c070ecdeaa8da202fa100da490f972898ceeb8fb3d5c0462318ed0d8025715d5",
    ),
    "closure-bad": (["group", "closure", "--perm", "[1, 0, 2, 3]"], 2, EMPTY),
    "apportion-tree": (
        ["apportion", "check", "--tree", FIGURE],
        0,
        "01f4c75c7e74d03e0882642ca7178ccd573c9531fc416a1f772254364585ae46",
    ),
    # --tree is required; the catalog sweep is a campaign of the apportion check
    "apportion-sweep": (["apportion", "check", "--n-max", "4"], 2, EMPTY),
    # the check is exact and takes no --tol
    "apportion-tol-zero": (
        ["apportion", "check", "--tree", FIGURE, "--tol", "0"],
        2,
        EMPTY,
    ),
    # on --tree, so that these reject the flag and an empty tree, not a
    # missing --tree
    "apportion-tol-negative": (
        ["apportion", "check", "--tree", FIGURE, "--tol", "-1"],
        2,
        EMPTY,
    ),
    "apportion-empty": (["apportion", "check", "--tree", '{"n": 0, "g": []}'], 2, EMPTY),
    "campaign": (
        [
            "campaign", "run", "--config",
            json.dumps({"checks": ALL_CHECKS, "n": [1, 5], "x": [1, 2]}),
        ],
        0,
        "6621ffae2411dbfed49b66b242574cbd71aa43f28f899baceaef4b7ddf604252",
    ),
    "campaign-records": (
        ["campaign", "run", "--config", '{"checks": ["beta"], "n": 3}', "--out", "{records}"],
        0,
        "6f4f977e82428fa32d274d4e0c9769ddbf227878e492b6bcdb98ff999afe49a7",
    ),
    "campaign-bad": (["campaign", "run", "--config", '{"checks": ["nope"]}'], 2, EMPTY),
    # a JSON true is not the integer 1
    "campaign-bool-span": (
        ["campaign", "run", "--config", '{"checks": ["beta"], "n": [true, 2]}'],
        2,
        EMPTY,
    ),
    # workers must be positive
    "campaign-workers-zero": (
        ["campaign", "run", "--config", '{"checks": ["beta"], "n": 2, "workers": 0}'],
        2,
        EMPTY,
    ),
}


def _golden_run(capsys, tmp_path, argv) -> tuple[int, str]:
    out_path, records_path = tmp_path / "out.txt", tmp_path / "records.jsonl"
    paths = {"{out}": str(out_path), "{records}": str(records_path)}
    try:
        code = main([paths.get(a, a) for a in argv])
    except SystemExit as exc:  # argparse: --version and usage errors
        code = exc.code
    text = capsys.readouterr().out
    if out_path.exists():
        text += out_path.read_text()
    return code, hashlib.sha256(text.encode()).hexdigest()


class TestGoldenCli:
    # Pinned so that any change to what a command prints or how it exits shows.
    @pytest.mark.parametrize("name", list(GOLDEN_CLI))
    def test_output_pinned(self, capsys, tmp_path, name):
        argv, code, digest = GOLDEN_CLI[name]
        assert _golden_run(capsys, tmp_path, argv) == (code, digest)
