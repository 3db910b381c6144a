import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hirank import trainer as trainer_mod
from hirank.cli import main, parse_relevance_flag
from hirank.dataset import FEATURES_FILE, SPLIT_FILE, TAXONOMY_FILE
from hirank.trainer import EMBEDDINGS_FILE, HISTORY_FILE, REPORT_FILE, STATE_FILE

FIXTURE_TAXONOMY = (
    "q\tr/s/t\n"
    "c3\tr/s/t\n"
    "c2\tr/s/x\n"
    "c1\tr/m/n\n"
    "c0\tw/y/z\n"
)
FIXTURE_SCORES = "q\tc2\t4\nq\tc3\t3\nq\tc0\t2\nq\tc1\t1\n"


def run(argv):
    return main(argv)


def write_eval_inputs(tmp_path, taxonomy=FIXTURE_TAXONOMY, scores=FIXTURE_SCORES):
    tax = tmp_path / "taxonomy.tsv"
    sco = tmp_path / "scores.tsv"
    tax.write_text(taxonomy)
    sco.write_text(scores)
    return tax, sco


class TestRelevanceFlag:
    def test_alpha(self):
        assert parse_relevance_flag("alpha:2.0").alpha_value == 2.0

    def test_weights(self):
        profile = parse_relevance_flag("weights:0.4,0.6")
        assert profile.kind == "weighted-ap"
        assert profile.weights == (0.4, 0.6)

    def test_rejects_other_tags(self):
        for bad in ("fine_only", "alpha", "weights:", "alpha=1", ""):
            with pytest.raises(ValueError):
                parse_relevance_flag(bad)


class TestSynthCommand:
    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = run([
            "synth", "--out", str(out), "--branching", "2,3",
            "--per-leaf", "2", "--dim", "4", "--seed", "1",
        ])
        assert code == 0
        assert "wrote 12 instances over 6 leaf classes" in capsys.readouterr().out
        for name in (TAXONOMY_FILE, FEATURES_FILE, SPLIT_FILE):
            assert (out / name).exists()

    def test_bad_branching_is_usage_error(self, tmp_path, capsys):
        code = run(["synth", "--out", str(tmp_path / "d"), "--branching", "2,0"])
        assert code == 1
        assert "branching" in capsys.readouterr().err

    def test_too_few_leaves_is_data_error(self, tmp_path, capsys):
        code = run(["synth", "--out", str(tmp_path / "d"), "--branching", "2"])
        assert code == 2
        assert "split" in capsys.readouterr().err

    def test_out_is_a_file_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = run(["synth", "--out", str(out), "--branching", "2,3", "--per-leaf", "2"])
        assert code == 2
        assert f"hirank synth: cannot write {out}" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run(["synth", "--out", "x", "--bogus", "1"])
        assert exc.value.code == 1


class TestEvalCommand:
    def test_perfect_fixture_all_ones(self, tmp_path, capsys):
        tax, sco = write_eval_inputs(
            tmp_path,
            taxonomy="q\tu\nc1\tu\nc2\tv\n",
            scores="q\tc1\t2\nq\tc2\t1\n",
        )
        out = tmp_path / "report.json"
        code = run([
            "eval", "--taxonomy", str(tax), "--scores", str(sco),
            "--out", str(out), "--ks", "1",
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["h_ap"] == 1.0
        assert report["ap_level_1"] == 1.0
        assert report["ndcg"] == 1.0
        assert report["recall_at_k"]["1"] == 1.0
        assert "h_ap 1.000000" in capsys.readouterr().out

    def test_graded_fixture_h_ap(self, tmp_path, capsys):
        tax, sco = write_eval_inputs(tmp_path)
        out = tmp_path / "report.json"
        code = run([
            "eval", "--taxonomy", str(tax), "--scores", str(sco), "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["h_ap"] - 0.875) < 1e-12
        assert list(report)[:3] == ["queries", "excluded", "h_ap"]
        assert "h_ap 0.875000" in capsys.readouterr().out

    def test_ragged_taxonomy_names_line(self, tmp_path, capsys):
        tax, sco = write_eval_inputs(tmp_path, taxonomy="q\tr/s\nc1\tr\n")
        code = run([
            "eval", "--taxonomy", str(tax), "--scores", str(sco),
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_bad_relevance_flag(self, tmp_path, capsys):
        tax, sco = write_eval_inputs(tmp_path)
        code = run([
            "eval", "--taxonomy", str(tax), "--scores", str(sco),
            "--out", str(tmp_path / "r.json"), "--relevance", "fine:3",
        ])
        assert code == 1
        assert "--relevance" in capsys.readouterr().err

    def test_bad_ks(self, tmp_path, capsys):
        tax, sco = write_eval_inputs(tmp_path)
        code = run([
            "eval", "--taxonomy", str(tax), "--scores", str(sco),
            "--out", str(tmp_path / "r.json"), "--ks", "0",
        ])
        assert code == 1

    def test_missing_scores_file(self, tmp_path, capsys):
        tax, _ = write_eval_inputs(tmp_path)
        code = run([
            "eval", "--taxonomy", str(tax), "--scores", str(tmp_path / "nope.tsv"),
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--scores", "--taxonomy"])
    def test_input_is_a_directory_is_data_error(self, tmp_path, capsys, flag):
        tax, sco = write_eval_inputs(tmp_path)
        inputs = {"--taxonomy": str(tax), "--scores": str(sco), flag: str(tmp_path)}
        code = run(["eval", *[x for pair in inputs.items() for x in pair],
                    "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"hirank eval: cannot read {tmp_path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--taxonomy", "--scores"])
    def test_non_utf8_input_names_the_file(self, tmp_path, capsys, flag):
        tax, sco = write_eval_inputs(tmp_path)
        bad = {"--taxonomy": tax, "--scores": sco}[flag]
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        code = run(["eval", "--taxonomy", str(tax), "--scores", str(sco),
                    "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"hirank eval: {bad}: not UTF-8 at byte " in capsys.readouterr().err

    def test_unknown_query_id_is_named(self, tmp_path, capsys):
        tax, sco = write_eval_inputs(tmp_path, scores=FIXTURE_SCORES + "zz\tc1\t1\n")
        code = run(["eval", "--taxonomy", str(tax), "--scores", str(sco),
                    "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "hirank eval: unknown instance id 'zz'" in capsys.readouterr().err

    def test_query_among_its_candidates_is_named(self, tmp_path, capsys):
        tax, sco = write_eval_inputs(tmp_path, scores=FIXTURE_SCORES + "q\tq\t5\n")
        code = run(["eval", "--taxonomy", str(tax), "--scores", str(sco),
                    "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "hirank eval: query 'q' is among its own candidates\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, taxonomy, scores, message",
        [
            ("--taxonomy", "q\tr/s\nc1\tr\n", FIXTURE_SCORES, "line 2: "),
            ("--scores", FIXTURE_TAXONOMY, FIXTURE_SCORES + "q\tc1\tzap\n", "line 5: "),
        ],
        ids=["taxonomy", "scores"],
    )
    def test_parse_error_names_the_file(self, tmp_path, capsys, flag, taxonomy, scores, message):
        tax, sco = write_eval_inputs(tmp_path, taxonomy=taxonomy, scores=scores)
        bad = {"--taxonomy": tax, "--scores": sco}[flag]
        code = run(["eval", "--taxonomy", str(tax), "--scores", str(sco),
                    "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"hirank eval: {bad}: {message}")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_score_names_file_and_line(self, tmp_path, capsys, value):
        tax, sco = write_eval_inputs(tmp_path, scores=FIXTURE_SCORES + f"q\tc1\t{value}\n")
        code = run(["eval", "--taxonomy", str(tax), "--scores", str(sco),
                    "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"hirank eval: {sco}: line 5: score '{value}' is not finite\n"
        )

    def test_blank_scores_file_is_empty_input(self, tmp_path, capsys):
        tax, sco = write_eval_inputs(tmp_path, scores="\n\n")
        code = run(["eval", "--taxonomy", str(tax), "--scores", str(sco),
                    "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"hirank eval: {sco}: no score rows" in capsys.readouterr().err

    def test_out_in_missing_directory_is_data_error(self, tmp_path, capsys):
        tax, sco = write_eval_inputs(tmp_path)
        out = tmp_path / "missing_dir" / "report.json"
        code = run(["eval", "--taxonomy", str(tax), "--scores", str(sco), "--out", str(out)])
        assert code == 2
        assert f"hirank eval: cannot write {out}" in capsys.readouterr().err

    def test_threads_do_not_change_output(self, tmp_path):
        tax, sco = write_eval_inputs(tmp_path)
        out1 = tmp_path / "r1.json"
        out3 = tmp_path / "r3.json"
        base = ["eval", "--taxonomy", str(tax), "--scores", str(sco)]
        assert run(base + ["--out", str(out1), "--threads", "1"]) == 0
        assert run(base + ["--out", str(out3), "--threads", "3"]) == 0
        assert out1.read_bytes() == out3.read_bytes()

    def test_weights_profile(self, tmp_path):
        tax, sco = write_eval_inputs(tmp_path)
        code = run([
            "eval", "--taxonomy", str(tax), "--scores", str(sco),
            "--out", str(tmp_path / "r.json"),
            "--relevance", "weights:0.2,0.3,0.5",
        ])
        assert code == 0

    def test_weight_count_not_matching_depth_is_data_error(self, tmp_path, capsys):
        tax, sco = write_eval_inputs(tmp_path)
        code = run([
            "eval", "--taxonomy", str(tax), "--scores", str(sco),
            "--out", str(tmp_path / "r.json"),
            "--relevance", "weights:0.5,0.5",
        ])
        assert code == 2
        assert "2 weights for depth 3" in capsys.readouterr().err


def write_train_inputs(tmp_path, config_over=None):
    data = tmp_path / "data"
    assert run([
        "synth", "--out", str(data), "--branching", "2,3",
        "--per-leaf", "6", "--dim", "5", "--seed", "1",
    ]) == 0
    config = {
        "model": {"kind": "linear", "dim": 4},
        "optimizer": {"kind": "sgd"},
        "lr0": 0.05,
        "epochs": 2,
        "batch_size": 8,
        "m_per_class": 4,
        "seed": 3,
        "objective": {"lambda": 0.1},
    }
    config.update(config_over or {})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return data, config_path


def nested(dotted, value):
    """The config document that sets the key `dotted` to `value`."""
    *objects, key = dotted.split(".")
    doc = {key: value}
    for name in reversed(objects):
        doc = {name: doc}
    return doc


def profile(**keys):
    return {"objective": {"profile": keys}}


NOT_INT = "invalid literal for int() with base 10: 'x'"
NOT_FLOAT = "could not convert string to float: 'x'"
HEAVISIDE = ("gamma", "nu", "mu", "tau", "rho", "delta")

# (dotted key, config document, message after "bad config: "); documents
# replace the top-level entries of the base config they name
WRONG_TYPE = [
    ("model.kind", nested("model.kind", 3), "model.kind must be one of 'table', 'linear', got 3"),
    *[(key, nested(key, "x"), f"{key}: {NOT_INT}") for key in (
        "model.dim", "model.in_dim", "epochs", "batch_size", "m_per_class", "warmup_epochs",
        "seed", "eval_every",
    )],
    ("optimizer.kind", nested("optimizer.kind", 3),
     "optimizer.kind must be one of 'sgd', 'adam', got 3"),
    *[(key, nested(key, "x"), f"{key}: {NOT_FLOAT}") for key in (
        "optimizer.momentum", "optimizer.beta1", "optimizer.beta2", "optimizer.eps", "lr0",
        "objective.lambda", "objective.sigma", "objective.profile.alpha",
        *(f"objective.heaviside.{name}" for name in HEAVISIDE),
    )],
    ("lr0", {"lr0": None},
     "lr0: float() argument must be a string or a real number, not 'NoneType'"),
    ("recall_ks", {"recall_ks": ["x"]}, f"recall_ks: {NOT_INT}"),
    ("objective.profile.kind", profile(kind=3),
     "objective.profile.kind must be one of 'alpha', 'weighted', 'explicit', 'fine_only', got 3"),
    ("objective.profile.weights", profile(kind="weighted", weights="x"),
     "objective.profile.weights must be a list, got str"),
    ("objective.profile.weights", profile(kind="weighted", weights=["x"]),
     f"objective.profile.weights: {NOT_FLOAT}"),
    ("objective.profile.table", profile(kind="explicit", table={"x": 1}),
     f"objective.profile.table: {NOT_INT}"),
]

OUT_OF_RANGE = [
    ("model.kind", nested("model.kind", "resnet"),
     "model.kind must be one of 'table', 'linear', got 'resnet'"),
    ("model.dim", nested("model.dim", 1), "model.dim must be >= 2, got 1"),
    ("model.in_dim", nested("model.in_dim", 9),
     "model.in_dim must equal the feature width 5, got 9"),
    ("optimizer.kind", nested("optimizer.kind", "lion"),
     "optimizer.kind must be one of 'sgd', 'adam', got 'lion'"),
    ("optimizer.momentum", nested("optimizer.momentum", 1.0),
     "optimizer.momentum must lie in [0, 1), got 1.0"),
    ("optimizer.beta1", nested("optimizer.beta1", 1.0),
     "optimizer.beta1 must lie in [0, 1), got 1.0"),
    ("optimizer.beta2", nested("optimizer.beta2", 1.5),
     "optimizer.beta2 must lie in [0, 1), got 1.5"),
    ("optimizer.eps", nested("optimizer.eps", 0),
     "optimizer.eps must be positive and finite, got 0.0"),
    ("lr0", {"lr0": 0}, "lr0 must be positive and finite, got 0.0"),
    ("lr0", {"lr0": math.nan}, "lr0 must be positive and finite, got nan"),
    ("lr0", {"lr0": math.inf}, "lr0 must be positive and finite, got inf"),
    ("epochs", {"epochs": -1}, "epochs must be >= 0, got -1"),
    ("epochs", {"epochs": math.inf}, "epochs: cannot convert float infinity to integer"),
    ("batch_size", {"batch_size": 1}, "batch_size must be >= 2, got 1"),
    ("m_per_class", {"m_per_class": 0}, "m_per_class must be >= 1, got 0"),
    ("warmup_epochs", {"warmup_epochs": -1}, "warmup_epochs must be >= 0, got -1"),
    ("seed", {"seed": -1}, "seed must be >= 0, got -1"),
    ("eval_every", {"eval_every": 0}, "eval_every must be >= 1, got 0"),
    ("recall_ks", {"recall_ks": [1, 0]}, "recall_ks must hold cutoffs >= 1, got (1, 0)"),
    ("objective.lambda", nested("objective.lambda", 1.5),
     "objective.lambda must lie in [0, 1], got 1.5"),
    ("objective.sigma", nested("objective.sigma", 0),
     "objective.sigma must be positive and finite, got 0.0"),
    ("objective.sigma", nested("objective.sigma", math.nan),
     "objective.sigma must be positive and finite, got nan"),
    ("objective.profile.kind", profile(kind="mystery"),
     "objective.profile.kind must be one of 'alpha', 'weighted', 'explicit', 'fine_only', "
     "got 'mystery'"),
    ("objective.profile.alpha", profile(alpha=-1),
     "objective.profile.alpha must be positive, got -1.0"),
    ("objective.profile.weights", profile(kind="weighted", weights=[]),
     "objective.profile.weights must be non-empty and positive"),
    ("objective.profile.weights", profile(kind="weighted", weights=[0.5, 0.6]),
     "objective.profile.weights must sum to 1, got 1.1"),
    ("objective.profile.weights",
     {"epochs": 0, **profile(kind="weighted", weights=[0.2, 0.3, 0.5])},
     "profile has 3 weights for depth 2"),
    ("objective.profile.table", profile(kind="explicit", table={"0": 1}),
     "objective.profile.table must map level 0 to relevance 0"),
    ("objective.profile.weights", profile(kind="weighted", weights=[math.nan, math.nan]),
     "objective.profile.weights must be non-empty and positive"),
    ("objective.profile.table", profile(kind="explicit", table={"1": -1}),
     "objective.profile.table values must be non-negative and finite"),
    ("objective.profile.table", profile(kind="explicit", table={"1": math.nan}),
     "objective.profile.table values must be non-negative and finite"),
    *[(f"objective.heaviside.{name}", nested(f"objective.heaviside.{name}", 0),
       f"objective.heaviside.{name} must " + ("lie in (0, 1)" if name == "mu" else
                                              "be positive and finite") + ", got 0.0")
      for name in HEAVISIDE],
    ("objective.heaviside.mu", nested("objective.heaviside.mu", 1),
     "objective.heaviside.mu must lie in (0, 1), got 1.0"),
    ("objective.heaviside.tau", nested("objective.heaviside.tau", math.inf),
     "objective.heaviside.tau must be positive and finite, got inf"),
    ("objective.heaviside.rho", nested("objective.heaviside.rho", math.nan),
     "objective.heaviside.rho must be positive and finite, got nan"),
    ("objective.heaviside", nested("objective.heaviside.taux", 1),
     "unknown key 'taux' in objective.heaviside"),
    ("objective.heaviside", nested("objective.heaviside", [1]),
     "objective.heaviside must be an object, got list"),
]


def test_config_tables_cover_every_key():
    declared = set(trainer_mod._CONFIG_KEYS)
    assert {key for key, _, _ in WRONG_TYPE} == declared
    ruled = {name for name, key in trainer_mod._CONFIG_KEYS.items() if key.rule is not None}
    assert ruled <= {key for key, _, _ in OUT_OF_RANGE}


class TestTrainCommand:
    @pytest.mark.parametrize(
        "document, message",
        [row[1:] for row in WRONG_TYPE + OUT_OF_RANGE],
        ids=[f"{kind}-{row[0]}-{i}"
             for kind, rows in (("type", WRONG_TYPE), ("range", OUT_OF_RANGE))
             for i, row in enumerate(rows)],
    )
    def test_bad_config_value_names_its_key(self, tmp_path, capsys, document, message):
        data, config = write_train_inputs(tmp_path, document)
        out = tmp_path / "run"
        code = run(["train", "--data", str(data), "--config", str(config),
                    "--out", str(out), "--quiet"])
        assert code == 1
        assert capsys.readouterr().err == f"hirank train: bad config: {message}\n"
        assert not out.exists()

    def test_zero_epochs(self, tmp_path, capsys):
        data, config = write_train_inputs(tmp_path, {"epochs": 0})
        out = tmp_path / "run"
        code = run(["train", "--data", str(data), "--config", str(config),
                    "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / HISTORY_FILE).read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["epoch"] == 0
        assert "loss" not in record
        for name in (STATE_FILE, REPORT_FILE):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert f"wrote {out}" in stdout

    def test_seed_determinism(self, tmp_path):
        data, config = write_train_inputs(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["train", "--data", str(data), "--config", str(config),
                        "--out", str(out), "--quiet"]) == 0
        assert (out_a / HISTORY_FILE).read_bytes() == (out_b / HISTORY_FILE).read_bytes()

    def test_out_is_a_file_is_data_error(self, tmp_path, capsys):
        data, config = write_train_inputs(tmp_path, {"epochs": 0})
        out = tmp_path / "taken"
        out.write_text("")
        code = run(["train", "--data", str(data), "--config", str(config),
                    "--out", str(out), "--quiet"])
        assert code == 2
        assert f"hirank train: cannot write {out}" in capsys.readouterr().err

    def test_lambda_out_of_range(self, tmp_path, capsys):
        data, config = write_train_inputs(tmp_path, {"objective": {"lambda": 1.5}})
        code = run(["train", "--data", str(data), "--config", str(config),
                    "--out", str(tmp_path / "run"), "--quiet"])
        assert code == 1
        assert "bad config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"lr0": 1e308}, "step 0: proxy vector norm is not finite"),
            ({"lr0": 1e180, "optimizer": {"kind": "sgd"}},
             "step 0: proxy vector norm is not finite"),
            ({"lr0": 1e200}, "step 0: proxy vector norm is not finite"),
            # without the clustering term the proxies stay put and the embeddings overflow
            ({"lr0": 1e200, "objective": {"lambda": 0.0}}, "step 1: embedding norm is not finite"),
            # one step per epoch: the holdout eval after it is the first to see the overflow
            ({"lr0": 1e200, "objective": {"lambda": 0.0}, "epochs": 1, "batch_size": 24,
              "m_per_class": 4},
             "evaluation at step 1: embedding norm is not finite"),
        ],
        ids=["adam_1e308", "sgd_1e180", "adam_1e200", "no_proxies", "at_evaluation"],
    )
    def test_diverged_training_names_its_step(self, tmp_path, capsys, over, message):
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--branching", "2,2,2", "--per-leaf", "4",
                    "--dim", "4", "--seed", "0"]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": {"dim": 4}, "optimizer": {"kind": "adam"}, "epochs": 3, "batch_size": 8,
            "m_per_class": 2, **over,
        }))
        out = tmp_path / "run"
        code = run(["train", "--data", str(data), "--config", str(config),
                    "--out", str(out), "--quiet"])
        assert code == 3
        assert capsys.readouterr().err == f"hirank train: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            (FEATURES_FILE, lambda text: text.split("\n", 1)[1], "instance(s) have no feature row"),
            (SPLIT_FILE, lambda text: text + "nowhere\n",
             "split names unknown leaf label 'nowhere'"),
        ],
        ids=["missing_feature_row", "unknown_split_label"],
    )
    def test_dataset_consistency_error_names_the_file(self, tmp_path, capsys, name, edit, message):
        data, config = write_train_inputs(tmp_path)
        path = data / name
        path.write_text(edit(path.read_text()))
        code = run(["train", "--data", str(data), "--config", str(config),
                    "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hirank train: {path}: ") and message in err

    def test_missing_data_dir(self, tmp_path, capsys):
        _, config = write_train_inputs(tmp_path)
        code = run(["train", "--data", str(tmp_path / "ghost"), "--config", str(config),
                    "--out", str(tmp_path / "run")])
        assert code == 2

    def test_config_is_a_directory_is_data_error(self, tmp_path, capsys):
        data, _ = write_train_inputs(tmp_path)
        code = run(["train", "--data", str(data), "--config", str(tmp_path),
                    "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"hirank train: cannot read {tmp_path}: " in capsys.readouterr().err

    def test_data_is_a_file_is_data_error(self, tmp_path, capsys):
        _, config = write_train_inputs(tmp_path)
        code = run(["train", "--data", str(config), "--config", str(config),
                    "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"hirank train: cannot read {config}/" in capsys.readouterr().err

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        data, config = write_train_inputs(tmp_path)
        config.write_bytes(b"\xff\xfe{}")
        code = run(["train", "--data", str(data), "--config", str(config),
                    "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"hirank train: {config}: not UTF-8 at byte 0" in capsys.readouterr().err

    def test_non_utf8_dataset_file_names_the_file(self, tmp_path, capsys):
        data, config = write_train_inputs(tmp_path)
        taxonomy = data / TAXONOMY_FILE
        taxonomy.write_bytes(taxonomy.read_bytes() + b"x\xff\tr/s/t\n")
        code = run(["train", "--data", str(data), "--config", str(config),
                    "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"hirank train: {taxonomy}: not UTF-8 at byte " in capsys.readouterr().err

    def test_feature_row_for_unknown_id_is_named(self, tmp_path, capsys):
        data, config = write_train_inputs(tmp_path)
        features = data / FEATURES_FILE
        first = features.read_text().split("\n", 1)[0]
        features.write_text(features.read_text() + "zz\t" + first.split("\t")[1] + "\n")
        code = run(["train", "--data", str(data), "--config", str(config),
                    "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"hirank train: {features}: unknown instance id 'zz'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, extra, message",
        [
            (TAXONOMY_FILE, "x\tr\n", "line 37: path has 1 components, expected 2"),
            (FEATURES_FILE, "x\t1,zap,3\n", "line 37: bad float in feature row for 'x'"),
            (SPLIT_FILE, "a/b\n", "line 3: expected a bare leaf label"),
        ],
        ids=["taxonomy", "features", "split"],
    )
    def test_dataset_parse_error_names_the_file(self, tmp_path, capsys, name, extra, message):
        data, config = write_train_inputs(tmp_path)
        path = data / name
        path.write_text(path.read_text() + extra)
        code = run(["train", "--data", str(data), "--config", str(config),
                    "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == f"hirank train: {path}: {message}\n"

    def test_config_not_json_names_the_file(self, tmp_path, capsys):
        data, config = write_train_inputs(tmp_path)
        config.write_text("{not json")
        code = run(["train", "--data", str(data), "--config", str(config),
                    "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"hirank train: {config}: Expecting property name"
        )

    def test_corrupt_config(self, tmp_path, capsys):
        data, config = write_train_inputs(tmp_path)
        config.write_text("{not json")
        code = run(["train", "--data", str(data), "--config", str(config),
                    "--out", str(tmp_path / "run")])
        assert code == 2

    def test_unknown_profile_kind(self, tmp_path, capsys):
        data, config = write_train_inputs(
            tmp_path, {"objective": {"profile": {"kind": "mystery"}}}
        )
        code = run(["train", "--data", str(data), "--config", str(config),
                    "--out", str(tmp_path / "run")])
        assert code == 1
        assert "bad config" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", [[1.0], [0.25, 0.25, 0.5]], ids=["too_few", "too_many"])
    def test_weight_count_not_matching_depth(self, tmp_path, capsys, weights):
        profile = {"kind": "weighted", "weights": weights}
        data, config = write_train_inputs(tmp_path, {"objective": {"profile": profile}})
        out = tmp_path / "run"
        code = run(["train", "--data", str(data), "--config", str(config),
                    "--out", str(out), "--quiet"])
        assert code == 1
        assert f"bad config: profile has {len(weights)} weights for depth 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_feature_is_data_error(self, tmp_path, capsys, value):
        data, config = write_train_inputs(tmp_path)
        features = data / FEATURES_FILE
        first, rest = features.read_text().split("\n", 1)
        instance_id, payload = first.split("\t")
        features.write_text(f"{instance_id}\t{value},{payload.split(',', 1)[1]}\n{rest}")
        code = run(["train", "--data", str(data), "--config", str(config),
                    "--out", str(tmp_path / "run"), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"hirank train: {features}: line 1: feature row for {instance_id!r} is not finite\n"
        )

    @pytest.mark.parametrize(
        "document, message",
        [
            ([1], "config must be an object, got list"),
            ({"model": "linear"}, "model must be an object, got str"),
            (
                {"objective": {"profile": {"kind": "explicit", "table": [0.5, 1.0]}}},
                "objective.profile.table must be an object, got list",
            ),
            ({"epoch": 1}, "unknown key 'epoch' in config"),
            ({"model.dim": 4}, "unknown key 'model.dim' in config"),
            ({"model": {"kind": "linear", "dims": 4}}, "unknown key 'dims' in model"),
            ({"optimizer": {"kind": "sgd", "lr": 0.1}}, "unknown key 'lr' in optimizer"),
            ({"objective": {"lamda": 0.1}}, "unknown key 'lamda' in objective"),
            (
                {"objective": {"profile": {"kind": "alpha", "alhpa": 2.0}}},
                "unknown key 'alhpa' in objective.profile",
            ),
            (
                {"objective": {"profile": {"kind": "weighted"}}},
                "missing key 'weights' in objective.profile",
            ),
            (
                {"objective": {"profile": {"kind": "explicit"}}},
                "missing key 'table' in objective.profile",
            ),
            ({"recall_ks": 3}, "recall_ks must be a list, got int"),
        ],
        ids=[
            "document_not_object", "section_not_object", "table_not_object", "top_level_typo",
            "dotted_key",
            "model_typo", "optimizer_typo", "objective_typo", "profile_typo",
            "weights_missing", "table_missing", "recall_ks_not_list",
        ],
    )
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, document, message):
        data, config = write_train_inputs(tmp_path, document if isinstance(document, dict) else None)
        if not isinstance(document, dict):
            config.write_text(json.dumps(document))
        out = tmp_path / "run"
        code = run(["train", "--data", str(data), "--config", str(config),
                    "--out", str(out), "--quiet"])
        assert code == 1
        assert f"hirank train: bad config: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_progress_lines_unless_quiet(self, tmp_path, capsys):
        data, config = write_train_inputs(tmp_path, {"epochs": 1})
        assert run(["train", "--data", str(data), "--config", str(config),
                    "--out", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "epoch 1/1" in out


# the C locale with UTF-8 mode and locale coercion off: the default encoding is ASCII
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def run_cli(argv, env_over):
    """Run `hirank` in a fresh interpreter with `env_over` set in its environment."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(env_over, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "hirank.cli", *argv], env=env,
                          capture_output=True, text=True, errors="replace")


def test_non_ascii_ids_under_c_locale(tmp_path):
    data, config = write_train_inputs(tmp_path, {"epochs": 1})
    for name in (TAXONOMY_FILE, FEATURES_FILE, SPLIT_FILE):
        path = data / name
        path.write_text(path.read_text().replace("n", "ñ"), encoding="utf-8")
    taxonomy = data / TAXONOMY_FILE
    ids = [line.split("\t")[0] for line in taxonomy.read_text(encoding="utf-8").splitlines()]
    scores = tmp_path / "scores.tsv"
    scores.write_text("".join(f"{ids[0]}\t{c}\t{i}\n" for i, c in enumerate(ids[1:])),
                      encoding="utf-8")
    outputs = []
    for mode, env in (("c", C_LOCALE), ("utf8", {"PYTHONUTF8": "1"})):
        out = tmp_path / mode
        for argv in (
            ["train", "--data", str(data), "--config", str(config), "--out", str(out), "--quiet"],
            ["eval", "--taxonomy", str(taxonomy), "--scores", str(scores),
             "--out", str(out / "eval.json")],
        ):
            proc = run_cli(argv, env)
            assert proc.returncode == 0, proc.stderr
            assert "Traceback" not in proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert "ñ".encode("utf-8") in outputs[0][EMBEDDINGS_FILE]
    assert outputs[0] == outputs[1]


class TestGradcheckCommand:
    def test_single_family_passes(self, capsys):
        code = run(["gradcheck", "--what", "heaviside", "--trials", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("heaviside")
        assert "max rel err" in out

    def test_impossible_tolerance_fails_with_replay(self, capsys):
        code = run([
            "gradcheck", "--what", "surrogate", "--trials", "3", "--tol", "1e-15",
        ])
        assert code == 3
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "replay: {" in out

    def test_every_family_prints_its_replay(self, capsys):
        code = run(["gradcheck", "--what", "all", "--trials", "3", "--tol", "1e-15"])
        assert code == 3
        replays = [
            json.loads(line[len("replay: "):])
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("replay: ")
        ]
        assert [replay["check"] for replay in replays] == [
            "heaviside", "surrogate", "clustering", "cosine", "combined",
        ]

    def test_bad_trials(self, capsys):
        assert run(["gradcheck", "--trials", "0"]) == 1

    def test_seed_determinism(self, capsys):
        args = ["gradcheck", "--what", "clustering", "--trials", "5", "--seed", "11"]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        assert capsys.readouterr().out == first
