import inspect
import json
import os
import random
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svdn.cli import _build_parser, _settings, main
from svdn.config import CONFIG_KEYS, RunConfig
from svdn.errors import ValidationError
from svdn.evaluation import generate_synthetic, load_dataset, save_dataset
from svdn.network import load_checkpoint, save_checkpoint
from svdn.trainer import checkpoint_name

CFG = """
dataset = {dataset}
hidden_dims = 16,12
eigen_dim = 6
step0_epochs = 4
restraint_epochs = 3
relaxation_epochs = 2
max_rri = 2
lr_step0 = 0.05
lr_restraint = 0.02
lr_relaxation = 0.01
batch_size = 8
seed = 3
"""


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(["gen", "--out", str(out), "--ids", "12", "--cameras", "2", "--samples", "3", "--dim", "8", "--seed", "5"])
    assert rc == 0
    return out / "dataset.csv"


@pytest.fixture(scope="module")
def config_path(tmp_path_factory, dataset_path):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(CFG.format(dataset=dataset_path))
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, config_path):
    out = tmp_path_factory.mktemp("train")
    rc = main(["train", "--config", str(config_path), "--out", str(out)])
    assert rc == 0
    return out


class TestGen:
    def test_writes_dataset_and_manifest(self, dataset_path):
        ds = load_dataset(dataset_path)
        assert ds.features.shape == (12 * 2 * 3, 8)
        manifest = json.loads((dataset_path.parent / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 5
        assert manifest["artifacts"] == {"dataset": "dataset.csv"}
        assert manifest["tool"] == "svdn"

    def test_defaults_are_generate_synthetic_defaults(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "cli")]) == 0
        save_dataset(generate_synthetic(), tmp_path / "lib.csv")
        assert (tmp_path / "cli" / "dataset.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
        manifest = json.loads((tmp_path / "cli" / "manifest.json").read_text())
        assert (manifest["seed"], manifest["config"]) == (
            0,
            {"identities": 32, "cameras": 4, "samples_per_id_camera": 6, "dim": 16, "noise": 0.45, "camera_scale": 0.5},
        )

    def test_invalid_config_rejected(self, tmp_path, capsys):
        rc = main(["gen", "--out", str(tmp_path), "--ids", "1"])
        assert rc == 2
        assert "identities" in capsys.readouterr().err

    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys):
        rc = main(["gen", "--out", str(tmp_path), "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err

    @pytest.mark.parametrize("flag, name", [("--noise", "noise"), ("--camera-scale", "camera_scale")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_scale_exits_2_naming_it(self, tmp_path, capsys, flag, name, value):
        rc = main(["gen", "--out", str(tmp_path), flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be finite")
        assert not (tmp_path / "dataset.csv").exists()


class TestTrain:
    def test_artifacts_written(self, trained):
        assert (trained / "trace.csv").exists()
        assert (trained / "ckpt_rri0_step0.svdn").exists()
        assert (trained / "ckpt_rri1_decorrelate.svdn").exists()
        assert (trained / "ckpt_final.svdn").exists()
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["eigen_dim"] == 6

    def test_trace_layout(self, trained):
        lines = (trained / "trace.csv").read_text().splitlines()
        assert lines[0] == "rri_index,phase,s_of_w,train_loss,rank1,map"
        assert lines[1].startswith("0,step0,")
        assert lines[2].startswith("1,decorrelate,")

    def test_decorrelate_rows_repeat_the_previous_retrieval_text(self, trained):
        # feature=input, and US rewrites only the eigenlayer, so retrieval cannot move
        rows = [line.split(",") for line in (trained / "trace.csv").read_text().splitlines()[1:]]
        decorrelate = [i for i, row in enumerate(rows) if row[1] == "decorrelate"]
        assert len(decorrelate) == 2
        for i in decorrelate:
            assert rows[i][4:] == rows[i - 1][4:]  # rank1, map

    def test_decorrelate_checkpoints_keep_the_singular_values(self, trained):
        rows = [line.split(",")[:2] for line in (trained / "trace.csv").read_text().splitlines()[1:]]
        pairs = [(before, after) for before, after in zip(rows, rows[1:]) if after[1] == "decorrelate"]
        assert len(pairs) == 2
        for before, after in pairs:
            s_before, s_after = (
                np.linalg.svd(load_checkpoint(trained / checkpoint_name(int(t), phase)).eigenlayer, compute_uv=False)
                for t, phase in (before, after)
            )
            np.testing.assert_allclose(s_after, s_before, rtol=1e-12, atol=0)

    def test_byte_identical_reruns(self, tmp_path, config_path, trained):
        out2 = tmp_path / "again"
        assert main(["train", "--config", str(config_path), "--out", str(out2)]) == 0
        assert (out2 / "trace.csv").read_bytes() == (trained / "trace.csv").read_bytes()
        for ckpt in sorted(trained.glob("ckpt_*.svdn")):
            assert (out2 / ckpt.name).read_bytes() == ckpt.read_bytes()

    def test_flag_overrides_config(self, tmp_path, config_path):
        out = tmp_path / "ovr"
        assert main(["train", "--config", str(config_path), "--out", str(out), "--max-rri", "1"]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[-1].startswith("1,relaxation,")

    def test_missing_dataset_key(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path)])
        assert rc == 2
        assert "dataset" in capsys.readouterr().err

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("optimizer = adam\n")
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "optimizer" in capsys.readouterr().err

    def test_wide_eigenlayer_rejected_before_step0(self, tmp_path, config_path, capsys):
        out = tmp_path / "wide"
        rc = main(["train", "--config", str(config_path), "--out", str(out), "--eigen-dim", "13"])  # backbone ends at 12
        assert rc == 2
        assert "tall" in capsys.readouterr().err
        assert list(out.glob("ckpt_*.svdn")) == []

    def test_dataset_without_queries_exits_2_before_step0(self, tmp_path, config_path, dataset_path, capsys):
        train_only = _train_only_copy(dataset_path, tmp_path)
        out = tmp_path / "noq"
        rc = main(["train", "--config", str(config_path), "--out", str(out), "--dataset", str(train_only)])
        assert rc == 2
        assert "query split" in capsys.readouterr().err
        assert list(out.glob("ckpt_*.svdn")) == []

    def test_diverged_run_prints_one_error_line(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "data")]) == 0
        argv = ["train", "--out", str(tmp_path / "run"), "--dataset", str(tmp_path / "data" / "dataset.csv")]
        proc = subprocess.run(
            [sys.executable, "-m", "svdn.cli", *argv, "--max-rri", "3", "--seed", "9", "--lr-relaxation", "1e6"],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr == "error: training diverged: non-finite loss at epoch 0\n"  # no numpy warnings

    def test_negative_seed_exits_2_naming_it(self, tmp_path, config_path, capsys):
        out = tmp_path / "neg"
        rc = main(["train", "--config", str(config_path), "--out", str(out), "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err
        assert list(out.glob("ckpt_*.svdn")) == []

    @pytest.mark.parametrize("flag", ["--lr-step0", "--lr-restraint", "--epsilon-s"])
    def test_infinite_schedule_value_exits_2_before_training(self, tmp_path, config_path, capsys, flag):
        out = tmp_path / "inf"
        rc = main(["train", "--config", str(config_path), "--out", str(out), flag, "inf"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag[2:].replace("-", "_") in err and "finite" in err
        assert list(out.glob("ckpt_*.svdn")) == []

    @pytest.mark.parametrize("dims", [",", "16,,12"])
    def test_empty_hidden_dims_item_exits_2_naming_key(self, tmp_path, config_path, capsys, dims):
        # an empty item is malformed, not dropped: "," is not "no hidden layer"
        out = tmp_path / "run"
        rc = main(["train", "--config", str(config_path), "--out", str(out), "--hidden-dims", dims])
        assert rc == 2
        assert f"config key 'hidden_dims': expected comma-separated integers, got {dims!r}" in capsys.readouterr().err
        assert not out.exists()  # settings are read before --out is made

    # 10**14 columns of float64 exceed any address space, so the
    # allocation fails at once; never test a width the machine could hold
    @pytest.mark.parametrize("flag", ["--hidden-dims", "--eigen-dim"])
    def test_unallocatable_width_exits_2(self, tmp_path, config_path, capsys, flag):
        out = tmp_path / "huge"
        rc = main(["train", "--config", str(config_path), "--out", str(out), flag, "100000000000000"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(out.glob("ckpt_*.svdn")) == []


def _train_only_copy(dataset_path, tmp_path):
    header, *rows = dataset_path.read_text().splitlines()
    train_only = tmp_path / "train_only.csv"
    train_only.write_text("\n".join([header] + [r for r in rows if r.split(",")[2] == "train"]) + "\n")
    return train_only


def _scoring_argv(command, config_path, out, ckpt, dataset):
    return {
        "eval": ["eval", "--config", str(config_path), "--out", str(out), "--ckpt", str(ckpt), "--dataset", str(dataset)],
        "diagnose": ["diagnose", "--config", str(config_path), "--out", str(out), "--dataset", str(dataset), str(ckpt)],
    }[command]


@pytest.mark.parametrize("command", ["eval", "diagnose"])
def test_dataset_without_queries_exits_2_naming_file_and_split(
    tmp_path, config_path, dataset_path, trained, capsys, monkeypatch, command
):
    train_only = _train_only_copy(dataset_path, tmp_path)
    forward = []
    monkeypatch.setattr("svdn.network.EigenModel.extract_features", lambda *args: forward.append(args))
    out = tmp_path / "noq"
    assert main(_scoring_argv(command, config_path, out, trained / "ckpt_final.svdn", train_only)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(train_only) in err and "query split" in err
    assert forward == [] and not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda i, f: f[:2] + ["holdout" if i == 0 else f[2]] + f[3:], "error: unknown split tags ['holdout']; expected"),
        (lambda i, f: f[:1] + ["0"] + f[2:], ") has no gallery sample under a different camera"),
    ],
    ids=["unknown_split", "query_without_cross_camera_match"],
)
def test_eval_on_malformed_dataset_exits_2_naming_the_fault(tmp_path, config_path, dataset_path, trained, capsys, edit, message):
    header, *rows = dataset_path.read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([header] + [",".join(edit(i, row.split(","))) for i, row in enumerate(rows)]) + "\n")
    out = tmp_path / "out"
    assert main(_scoring_argv("eval", config_path, out, trained / "ckpt_final.svdn", bad)) == 2
    assert message in capsys.readouterr().err
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("command", ["eval", "diagnose"])
def test_checkpoint_dataset_width_mismatch_exits_2_naming_both(tmp_path, config_path, trained, capsys, command):
    wide = tmp_path / "wide"
    assert main(["gen", "--out", str(wide), "--ids", "6", "--cameras", "2", "--samples", "2", "--dim", "9"]) == 0
    ckpt = trained / "ckpt_final.svdn"
    assert main(_scoring_argv(command, config_path, tmp_path / "out", ckpt, wide / "dataset.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(ckpt) in err and str(wide / "dataset.csv") in err
    assert "expects 8 features" in err and "has 9" in err


@pytest.mark.parametrize("command", ["eval", "train", "diagnose"])
def test_missing_input_file_exits_2_naming_it(tmp_path, config_path, capsys, command):
    missing = tmp_path / f"missing_{command}.input"
    out = str(tmp_path / "out")
    argv = {
        "eval": ["eval", "--config", str(config_path), "--out", out, "--ckpt", str(missing)],
        "train": ["train", "--config", str(missing), "--out", out],
        "diagnose": ["diagnose", "--out", out, str(missing)],
    }[command]
    assert main(argv) == 2
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--hidden-dims", ","], "config key 'hidden_dims': expected comma-separated integers, got ','"),
        (["train", "--lr-step0", "inf"], "lr_step0"),
        (["eval", "--ckpt", "ckpt.svdn", "--dataset", "missing.csv"], "config key 'dataset': no such file 'missing.csv'"),
        (["sweep-dim", "--dims", "4,,8"], "flag '--dims': expected comma-separated integers, got '4,,8'"),
        (["compare", "--methods", "US,Bogus"], "unknown decorrelation method 'Bogus'"),
        (["gen", "--ids", "1_6"], "parameter 'identities': expected an integer, got '1_6'"),
        (["gen", "--ids", "+4"], "parameter 'identities': expected an integer, got '+4'"),
        (["gen", "--ids", "\u0664"], "parameter 'identities': expected an integer, got '\u0664'"),
        (["gen", "--ids", "0"], "identities must be an integer >= 2, got 0"),
        (["gen", "--noise", "nan"], "noise must be finite and >= 0, got nan"),
    ],
    ids=[
        "empty_width_item", "infinite_rate", "missing_dataset", "empty_dims_item", "unknown_method",
        "gen_underscored_ids", "gen_signed_ids", "gen_non_ascii_ids", "gen_too_few_ids", "gen_nan_noise",
    ],
)
def test_rejected_setting_exits_2_before_out_is_made(tmp_path, config_path, capsys, argv, message):
    # as an argparse rejection does: the settings and the dataset (gen: made) are read before --out is made
    out = tmp_path / "out"
    config = [] if argv[0] == "gen" else ["--config", str(config_path)]  # gen reads no config file
    assert main([*argv, *config, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "train"])
def test_non_utf8_input_file_exits_2_naming_it(tmp_path, config_path, dataset_path, trained, capsys, command):
    bad = tmp_path / f"bad_{command}.input"
    source = dataset_path if command == "eval" else config_path
    bad.write_bytes(b"\xff" + source.read_bytes())
    out = str(tmp_path / "out")
    argv = {
        "eval": ["eval", "--config", str(config_path), "--out", out, "--ckpt", str(trained / "ckpt_final.svdn"),
                 "--dataset", str(bad)],
        "train": ["train", "--config", str(bad), "--out", out],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err


class TestEval:
    def test_report_written(self, tmp_path, config_path, trained, capsys):
        out = tmp_path / "eval"
        rc = main([
            "eval", "--config", str(config_path), "--out", str(out),
            "--ckpt", str(trained / "ckpt_final.svdn"),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "mAP" in text
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "metric,value"
        assert any(line.startswith("map,") for line in lines)

    def test_missing_artifact_exits_1_naming_it(self, tmp_path, config_path, trained, capsys, monkeypatch):
        monkeypatch.setattr("svdn.cli.write_report", lambda report, path: None)
        rc = main([
            "eval", "--config", str(config_path), "--out", str(tmp_path),
            "--ckpt", str(trained / "ckpt_final.svdn"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: missing artifacts after run: report.csv\n"

    def test_l2_normalize_flag(self, tmp_path, config_path, trained):
        out = tmp_path / "eval_l2"
        rc = main([
            "eval", "--config", str(config_path), "--out", str(out),
            "--ckpt", str(trained / "ckpt_final.svdn"), "--l2-normalize",
        ])
        assert rc == 0

    def test_overflowing_distances_exit_3_naming_norms(self, tmp_path, config_path, trained, capsys):
        # finite features of about 1e160 whose squared norms overflow float64
        model = load_checkpoint(trained / "ckpt_final.svdn")
        model.backbone[-1].weight[...] *= 1e160
        model.backbone[-1].bias[...] *= 1e160
        ckpt = tmp_path / "huge.svdn"
        save_checkpoint(model, ckpt)
        out = tmp_path / "eval_huge"
        rc = main(["eval", "--config", str(config_path), "--out", str(out), "--ckpt", str(ckpt), "--feature", "input"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflow" in err and "squared row norms inf and inf" in err
        assert "Traceback" not in err
        assert not (out / "report.csv").exists()


@pytest.mark.parametrize("layer", ["eigenlayer", "backbone0.weight", "classifier.bias"])
@pytest.mark.parametrize("command", ["eval", "diagnose"])
def test_non_finite_checkpoint_exits_2_naming_layer(tmp_path, config_path, trained, capsys, command, layer):
    # the input feature never reads the eigenlayer, so only the loader can catch it
    model = load_checkpoint(trained / "ckpt_final.svdn")
    dict(model.param_items())[layer].flat[0] = np.nan
    ckpt = tmp_path / "nan.svdn"
    save_checkpoint(model, ckpt)
    out = str(tmp_path / "out")
    argv = {
        "eval": ["eval", "--config", str(config_path), "--out", out, "--ckpt", str(ckpt), "--feature", "input"],
        "diagnose": ["diagnose", "--config", str(config_path), "--out", out, str(ckpt)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(ckpt) in err and layer in err


class TestDiagnose:
    def test_prints_scores_and_writes_csv(self, tmp_path, config_path, trained, capsys):
        out = tmp_path / "diag"
        rc = main(["diagnose", "--config", str(config_path), "--out", str(out), str(trained)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "ckpt_rri1_decorrelate.svdn" in printed
        lines = (out / "diagnose.csv").read_text().splitlines()
        assert lines[0] == "checkpoint,rri_index,phase,s_of_w,rank1,map"
        rows = {line.split(",")[0].split("/")[-1]: line.split(",") for line in lines[1:]}
        decorr = rows["ckpt_rri1_decorrelate.svdn"]
        assert float(decorr[3]) >= 1.0 - 1e-6  # freshly orthogonalized checkpoint
        assert decorr[1] == "1" and decorr[2] == "decorrelate"
        assert decorr[4] != "" and decorr[5] != ""  # metrics present when data given

    def test_without_data_leaves_metrics_blank(self, tmp_path, trained):
        out = tmp_path / "diag2"
        rc = main(["diagnose", "--out", str(out), str(trained / "ckpt_rri0_step0.svdn")])
        assert rc == 0
        lines = (out / "diagnose.csv").read_text().splitlines()
        assert lines[1].endswith(",,")

    def test_directory_ignores_leftover_temporary_file(self, tmp_path, trained):
        runs = tmp_path / "runs"
        runs.mkdir()
        for name in ("ckpt_rri0_step0.svdn", "ckpt_final.svdn"):
            (runs / name).write_bytes((trained / name).read_bytes())
        (runs / ".ckpt_rri1_decorrelate.svdn.4242.tmp").write_bytes((trained / "ckpt_final.svdn").read_bytes()[:100])
        out = tmp_path / "diag4"
        assert main(["diagnose", "--out", str(out), str(runs)]) == 0
        rows = (out / "diagnose.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [str(runs / "ckpt_rri0_step0.svdn"), str(runs / "ckpt_final.svdn")]

    def test_file_list_in_training_order(self, tmp_path, config_path, trained, capsys):
        # iteration, then phase in run order (unknown last), then name; unnamed files after all, by name
        expected = [
            "ckpt_rri0_step0.svdn",
            "ckpt_rri1_decorrelate.svdn",
            "ckpt_rri01_restraint.svdn",
            "ckpt_rri1_restraint.svdn",
            "ckpt_rri1_relaxation.svdn",
            "ckpt_rri1_warmup.svdn",
            "x_ckpt_rri2_step0.svdn",
            "ckpt_rri2_decorrelate.svdn",
            "ckpt_rri2_restraint.svdn",
            "ckpt_rri2_relaxation.svdn",
            "ckpt_rri10_step0.svdn",
            "best.svdn",
            "ckpt_final.svdn",
        ]
        runs = tmp_path / "runs"
        runs.mkdir()
        for name in expected:
            source = trained / name if (trained / name).exists() else trained / "ckpt_rri1_relaxation.svdn"
            (runs / name).write_bytes(source.read_bytes())
        diagnose = ["diagnose", "--config", str(config_path), "--out"]
        header = "checkpoint,rri_index,phase,s_of_w,rank1,map\n"
        rows, printed = [], ""
        for i, name in enumerate(expected):  # one run per file gives each file's row and line
            assert main([*diagnose, str(tmp_path / f"one{i}"), str(runs / name)]) == 0
            printed += capsys.readouterr().out
            head, row = (tmp_path / f"one{i}" / "diagnose.csv").read_text().splitlines(keepends=True)
            assert head == header
            rows.append(row)
        shuffled = expected[:]
        random.Random(0).shuffle(shuffled)
        assert shuffled != expected
        out = tmp_path / "all"
        assert main([*diagnose, str(out), *(str(runs / name) for name in shuffled)]) == 0
        assert capsys.readouterr().out == printed
        assert (out / "diagnose.csv").read_text() == header + "".join(rows)
        cells = {row.split(",")[0].split("/")[-1]: row.split(",")[1:3] for row in rows}
        assert cells["x_ckpt_rri2_step0.svdn"] == ["2", "step0"]
        assert cells["ckpt_rri01_restraint.svdn"] == ["01", "restraint"]
        assert cells["ckpt_rri1_warmup.svdn"] == ["1", "warmup"]
        assert cells["best.svdn"] == cells["ckpt_final.svdn"] == ["", ""]

    def test_directory_without_checkpoints_exits_2_naming_it(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "diag3"
        assert main(["diagnose", "--out", str(out), str(empty)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(empty) in err
        assert not (out / "diagnose.csv").exists()


class TestCompare:
    def test_table_and_csv(self, tmp_path, config_path, capsys):
        out = tmp_path / "cmp"
        rc = main([
            "compare", "--config", str(config_path), "--out", str(out),
            "--methods", "Orig,US", "--max-rri", "1",
        ])
        assert rc == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "method,rank1,map"
        assert [line.split(",")[0] for line in lines[1:]] == ["Orig", "US"]
        assert "US" in capsys.readouterr().out

    def test_unknown_method_rejected(self, tmp_path, config_path, capsys):
        rc = main([
            "compare", "--config", str(config_path), "--out", str(tmp_path), "--methods", "Orig,XY",
        ])
        assert rc == 2
        assert "XY" in capsys.readouterr().err

    def test_empty_method_list_exits_2_naming_valid_methods(self, tmp_path, config_path, capsys):
        rc = main([
            "compare", "--config", str(config_path), "--out", str(tmp_path), "--methods", "", "--max-rri", "1",
        ])
        assert rc == 2
        assert "Orig, US, U, UVt, QD" in capsys.readouterr().err
        assert not (tmp_path / "comparison.csv").exists()

    def test_method_names_may_carry_spaces(self, tmp_path, config_path):
        for name, methods in (("plain", "Orig,US"), ("spaced", "Orig, US")):
            rc = main([
                "compare", "--config", str(config_path), "--out", str(tmp_path / name),
                "--methods", methods, "--max-rri", "1",
            ])
            assert rc == 0
        assert (tmp_path / "spaced" / "comparison.csv").read_bytes() == (tmp_path / "plain" / "comparison.csv").read_bytes()


class TestSweepDim:
    def test_two_curve_csv(self, tmp_path, config_path):
        out = tmp_path / "sweep"
        rc = main([
            "sweep-dim", "--config", str(config_path), "--out", str(out),
            "--dims", "4,8", "--max-rri", "1",
        ])
        assert rc == 0
        lines = (out / "sweep_dim.csv").read_text().splitlines()
        assert lines[0] == "dim,map_with_rri,map_without_rri,rank1_with_rri,rank1_without_rri"
        assert [line.split(",")[0] for line in lines[1:]] == ["4", "8"]

    def test_dim_beyond_backbone_rejected(self, tmp_path, config_path, capsys):
        rc = main([
            "sweep-dim", "--config", str(config_path), "--out", str(tmp_path), "--dims", "64",
        ])
        assert rc == 2
        assert "backbone" in capsys.readouterr().err

    def test_malformed_dims_named_as_the_flag(self, tmp_path, config_path, capsys):
        rc = main(["sweep-dim", "--config", str(config_path), "--out", str(tmp_path), "--dims", "x"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--dims" in err and "config key" not in err

    def test_empty_dims_rejected(self, tmp_path, config_path, capsys):
        rc = main(["sweep-dim", "--config", str(config_path), "--out", str(tmp_path), "--dims", " "])
        assert rc == 2
        assert "'--dims': expected at least one dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ["4,,8", " , ", "4,"])
    def test_empty_dims_item_rejected_before_training(self, tmp_path, config_path, capsys, monkeypatch, dims):
        monkeypatch.setattr("svdn.cli.run_dim_sweep", lambda *a: pytest.fail("trained on a malformed --dims"))
        rc = main(["sweep-dim", "--config", str(config_path), "--out", str(tmp_path), "--dims", dims])
        assert rc == 2
        assert f"flag '--dims': expected comma-separated integers, got {dims!r}" in capsys.readouterr().err
        assert not (tmp_path / "sweep_dim.csv").exists()

    def test_repeated_dims_rejected_before_training(self, tmp_path, config_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("svdn.trainer.train_step0", lambda *a, **k: calls.append(a))
        rc = main(["sweep-dim", "--config", str(config_path), "--out", str(tmp_path), "--dims", "6,4,8,4,6"])
        assert rc == 2
        assert "sweep dims [4, 6] are given more than once" in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "sweep_dim.csv").exists()


GEN_PARAMS = tuple(inspect.signature(generate_synthetic).parameters)
# The settings each command reads: the flags it offers and what its manifest records.
COMMAND_SETTINGS = {
    "gen": set(GEN_PARAMS),
    "train": set(CONFIG_KEYS),
    "eval": {"dataset", "feature", "seed"},
    "diagnose": {"dataset", "feature", "seed"},
    "compare": set(CONFIG_KEYS),
    "sweep-dim": set(CONFIG_KEYS) - {"eigen_dim"},
}
SHORT = ["--max-rri", "1", "--step0-epochs", "1", "--restraint-epochs", "1", "--relaxation-epochs", "1"]


def _settings_flags(command):
    """The settings among the flags ``command``'s parser offers: config keys
    or, for ``gen``, parameters of ``generate_synthetic``."""
    sub = _build_parser()._subparsers._group_actions[0].choices[command]
    return {action.dest for action in sub._actions if action.dest in {*CONFIG_KEYS, *GEN_PARAMS}}


@pytest.mark.parametrize("command", COMMAND_SETTINGS)
def test_manifest_records_exactly_the_settings_flags(tmp_path, config_path, trained, command):
    out = str(tmp_path / "out")
    argv = {
        "gen": ["gen", "--out", out, "--ids", "6", "--cameras", "2", "--samples", "2"],
        "train": ["train", "--config", str(config_path), "--out", out, *SHORT],
        "eval": ["eval", "--config", str(config_path), "--out", out, "--ckpt", str(trained / "ckpt_final.svdn")],
        "diagnose": ["diagnose", "--out", out, "--seed", "7", str(trained / "ckpt_rri0_step0.svdn")],
        "compare": ["compare", "--config", str(config_path), "--out", out, "--methods", "US", *SHORT],
        "sweep-dim": ["sweep-dim", "--config", str(config_path), "--out", out, "--dims", "4", *SHORT],
    }[command]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert _settings_flags(command) == COMMAND_SETTINGS[command]
    assert {*manifest["config"], "seed"} == COMMAND_SETTINGS[command]
    assert isinstance(manifest["seed"], int)


# Every flag a command does not read, on an otherwise valid command line.
UNREAD_FLAGS = [("gen", "config")] + [
    (command, key) for command in ("eval", "diagnose", "sweep-dim") for key in CONFIG_KEYS
    if key not in COMMAND_SETTINGS[command]
]


@pytest.mark.parametrize("command, key", UNREAD_FLAGS)
def test_unread_setting_flag_exits_2_before_any_file(tmp_path, config_path, trained, capsys, command, key):
    out = tmp_path / "out"
    ckpt = str(trained / "ckpt_final.svdn")
    flag = "--" + key.replace("_", "-")
    argv = {
        "gen": ["gen"],
        "eval": ["eval", "--config", str(config_path), "--ckpt", ckpt],
        "diagnose": ["diagnose", ckpt],
        "sweep-dim": ["sweep-dim", "--config", str(config_path), "--dims", "4"],
    }[command]
    value = str(config_path) if key == "config" else "3"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} {value}" in err
    assert f"usage: svdn {command} " in err  # the command's own usage, which lists the flags it takes
    assert not out.exists()


def _sample_text(key, dataset_path):
    """A valid text value for a config key that differs from its default."""
    special = {"feature": "output", "dataset": str(dataset_path)}
    if key in special:
        return special[key]
    default = asdict(RunConfig())[key]
    if isinstance(default, tuple):
        return ",".join(str(d + 1) for d in default)
    return str(default * 2)


def _train_settings(dataset_path, key, *source):
    """The run config ``train`` resolves from ``source``, a ``--config`` file
    or a flag that sets ``key``, before any dataset is loaded and so without
    training.  ``--dataset`` is added unless ``key`` is the dataset."""
    data = () if key == "dataset" else ("--dataset", str(dataset_path))
    return _settings(_build_parser().parse_args(["train", *source, *data]))


@pytest.mark.parametrize("key", CONFIG_KEYS)
class TestConfigKeyParity:
    def test_file_line_and_flag_agree(self, tmp_path, dataset_path, key):
        text = _sample_text(key, dataset_path)
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{key} = {text}\n")
        from_file = _train_settings(dataset_path, key, "--config", str(cfg))
        from_flag = _train_settings(dataset_path, key, "--" + key.replace("_", "-"), text)
        assert from_file == from_flag
        defaults = asdict(RunConfig())
        assert {k for k in defaults if defaults[k] != asdict(from_flag)[k]} == {key, "dataset"}

    def test_malformed_value_exits_2_naming_key(self, tmp_path, dataset_path, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = x\n")
        for source in (["--config", str(cfg)], ["--" + key.replace("_", "-"), "x"]):
            with pytest.raises(ValidationError, match=f"'{key}'"):
                _train_settings(dataset_path, key, *source)


# any text but NUL, newline and surrogates; numbers reach the range checks
CONFIG_VALUES = st.one_of(
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00\n"), max_size=20),
    st.integers().map(str),
    st.floats().map(str),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(CONFIG_KEYS), value=CONFIG_VALUES)
def test_any_config_value_exits_0_or_2(tmp_path, dataset_path, monkeypatch, key, value):
    """Every key and value resolves to a run config or a ValidationError
    (exit 2), from the file and from the flag, without any training."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "any.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    for source in (["--config", str(cfg)], [f"--{key.replace('_', '-')}={value}"]):
        try:
            _train_settings(dataset_path, key, *source)
            rc = 0
        except ValidationError:
            rc = 2
        except SystemExit as exc:
            rc = exc.code
        assert rc in (0, 2), (source, rc)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "svdn" in capsys.readouterr().out


def test_every_public_name_resolves():
    import svdn

    assert len(svdn.__all__) == len(set(svdn.__all__))
    for name in svdn.__all__:
        assert getattr(svdn, name) is not None, name
