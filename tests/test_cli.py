import hashlib
import json

import pytest

from treedecomp import (
    Labeling,
    decompose_directed_knn,
    decomposition_from_json,
    find_beta,
    from_parent_map,
    tree_from_json,
)
from treedecomp import decomposition, labeling, trees
from treedecomp.cli import (
    _campaign_record,
    export_object,
    labeling_from_json,
    labeling_to_json,
    main,
    run_campaign,
    sigma_from_json,
)
from treedecomp.errors import (
    MalformedInput,
    ReductionDiverged,
    TreeDecompError,
    UnsupportedFormat,
    VerificationFailed,
)

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
        assert isinstance(labeling_from_json(out, t), Labeling)
        assert len(sigma) == 4

    def test_find_all(self, capsys):
        code, out, _ = run(capsys, "label", "find", "--tree", TREE4, "--all")
        assert code == 0
        assert [0, 3, 2, 1] in json.loads(out)["labelings"]

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

    def test_find_all_above_phi_cap_exit_two(self, capsys):
        star = json.dumps({"n": 10, "g": [0] * 10})
        code, out, err = run(capsys, "label", "find", "--tree", star, "--all")
        assert code == 2 and out == ""
        assert "cap" in err

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
        code, out, err = run(
            capsys, "decompose", "--tree", FIGURE, "--target", "knn", "--verify"
        )
        assert code == 0
        d = decomposition_from_json(out)
        assert len(d.copies) == 4
        assert json.loads(err) == {"ok": True, "copies": 4}

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
        code, _, _ = run(
            capsys, "decompose", "--tree", TREE4, "--target", "k2n1", "--verify"
        )
        assert code == 0 and len(calls) == 1

    def test_k2n1_dot_frames(self, capsys):
        code, out, _ = run(
            capsys,
            "decompose", "--tree", '{"n": 2, "g": [0, 0]}',
            "--target", "k2n1", "--x", "1", "--format", "dot",
        )
        assert code == 0
        assert out.count("graph frame_") == 3

    def test_knxnx(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--tree", TREE4, "--target", "knxnx", "--x", "2"
        )
        assert code == 0
        assert len(json.loads(out)["copies"]) == 12


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

    def test_magnitude(self, capsys):
        code, out, _ = run(capsys, "certificate", "magnitude", "--tree", TREE4)
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] and obj["expected"] == str(6 * 24 * 240 * 4320)

    def test_nonzero(self, capsys):
        code, out, _ = run(capsys, "certificate", "nonzero", "--tree", TREE4)
        assert code == 0 and json.loads(out)["nonzero"]

    def test_nonzero_full_lattice(self, capsys):
        code, out, _ = run(
            capsys, "certificate", "nonzero", "--tree", TREE4, "--full-lattice"
        )
        assert code == 0 and json.loads(out)["nonzero"]

    def test_invariance(self, capsys):
        code, out, _ = run(capsys, "certificate", "invariance", "--tree", TREE4)
        assert code == 0 and json.loads(out)["ok"]

    def test_monomial_support(self, capsys):
        code, out, _ = run(capsys, "certificate", "monomial-support", "--n", "3")
        assert code == 0 and json.loads(out)["bases_checked"] == 6

    def test_composition(self, capsys):
        code, out, _ = run(capsys, "certificate", "composition", "--n", "4")
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] and len(obj["trees"]) == 2


class TestGroup:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "group", "example", "--n", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["matrix"] == [[0, 5, 2], [3, 4, 6], [1, 7, 8]]
        assert obj["order"] == 3

    def test_from_tree(self, capsys):
        code, out, _ = run(capsys, "group", "from-tree", "--tree", FIGURE)
        assert code == 0
        assert json.loads(out)["sigma"][0] == 0

    def test_closure(self, capsys):
        sigma1 = [0, 5, 2, 3, 4, 6, 1, 7, 8]
        code, out, _ = run(capsys, "group", "closure", "--perm", json.dumps(sigma1))
        assert code == 0
        assert json.loads(out)["order"] == 3

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

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "apportion", "check", "--n-max", "4")
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] and len(obj["trees"]) == 5


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
        ["[1]", "[]", '{"workers": "x"}', '{"workers": 1.5}', '{"checks": 5}', '{"out": 2.5}'],
    )
    def test_bad_config_exit_two(self, capsys, config):
        code, out, err = run(capsys, "campaign", "run", "--config", config)
        assert code == 2 and out == ""
        assert err.startswith("error") and err.count("\n") == 1

    def test_record_above_search_cap_is_skipped(self):
        # A 17-vertex path is over find_beta's cap; the record still comes back.
        record = _campaign_record((17, [0] + list(range(16)), "00", ["beta", "knn"], [1]))
        assert record["labeling"] is None
        for result in record["checks"].values():
            assert result["pass"] is None and result["skipped"]
            assert "cap" in result["reason"]

    def test_skipped_checks_recorded(self):
        # invariance needs a sibling-leaf pair; the 3-path has none
        summary, records = run_campaign({"checks": ["invariance"], "n": 2})
        assert summary["skipped"] == 1
        assert records[0]["checks"]["invariance"]["pass"] is None


ALL_CHECKS = [
    "beta", "graceful", "phi", "knn", "k2n1", "knxnx",
    "magnitude", "nonzero", "invariance", "composition", "allones", "apportion",
]


def _record_digest(records) -> str:
    """SHA-256 over the campaign records with their timings dropped."""
    lines = []
    for r in records:
        r = {k: v for k, v in r.items() if k != "search_ms"}
        r["checks"] = {
            name: {k: v for k, v in res.items() if k != "runtime_ms"}
            for name, res in r["checks"].items()
        }
        lines.append(json.dumps(r))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestGoldenRecords:
    # Pinned so that a change to any check's record, not only to its pass, shows.
    def test_all_checks_n_up_to_seven(self):
        summary, records = run_campaign({"checks": ALL_CHECKS, "n": [1, 7], "x": [1, 2]})
        assert summary["records"] == 25 and summary["skipped"] == 23
        assert _record_digest(records) == (
            "265474b7197d08028eab346b4c243384e963309a52e77ee1a6dd12327d7f0aad"
        )


class TestExportRoundTrip:
    def test_tree(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        assert tree_from_json(export_object(t, "json")) == t

    def test_labeling(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        lab = find_beta(t, "first")
        assert labeling_from_json(export_object(lab, "json"), t) == lab
        assert sigma_from_json(labeling_to_json(lab)) == lab.sigma

    def test_decomposition(self):
        t = from_parent_map(4, [0, 3, 3, 0])
        d = decompose_directed_knn(t, (0, 1, 2, 3))
        assert decomposition_from_json(export_object(d, "json")) == d

    def test_labeling_dot(self):
        t = from_parent_map(4, [0, 0, 1, 1])
        dot = export_object(find_beta(t, "first"), "dot")
        assert dot.startswith("digraph")

    def test_unsupported(self):
        with pytest.raises(UnsupportedFormat):
            export_object(from_parent_map(1, [0]), "yaml")
        with pytest.raises(UnsupportedFormat):
            export_object(42, "json")

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
        assert code == (1 if error in (VerificationFailed, ReductionDiverged) else 2)
        assert out == "" and err.endswith("boom\n") and err.count("\n") == 1

    def test_json_decode_error_exit_two(self, capsys):
        code, out, err = run(capsys, "campaign", "run", "--config", "{")
        assert code == 2 and out == "" and err.count("\n") == 1


class TestNoLabelingFound:
    # Criterion 01 finds a labeling for every tree up to 10 vertices, so the
    # search is stubbed to reach this path.
    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--tree", TREE4, "--target", "knn"],
            ["group", "from-tree", "--tree", TREE4],
            ["apportion", "check", "--tree", TREE4],
            ["apportion", "check", "--n-max", "2"],
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


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
