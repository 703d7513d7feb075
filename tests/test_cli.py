import json
from pathlib import Path

import pytest

from econocast.cli import main
from econocast.metrics import REPORT_COLUMNS


def read(path):
    return Path(path).read_bytes()


def base_config(out_dir, months=72, seed=2, epochs=40, networks=None):
    return {
        "schema_version": 1,
        "data": {
            "synthetic": {
                "seed": seed,
                "months": months,
                "cycle_period": 12,
                "noise_scale": 0.1,
            }
        },
        "target": "activity",
        "train_range": ["1992-01", "1995-12"],
        "test_range": ["1996-01", "1996-12"],
        "networks": networks or ["network1", "network2"],
        "sub_hidden_layers": [3],
        "master_hidden_layers": [3],
        "train": {"max_epochs": epochs, "rng_seed": 1},
        "out_dir": out_dir,
    }


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_bundle_and_metadata(tmp_path):
    out = str(tmp_path / "a")
    assert main(["generate", "--seed", "1", "--months", "60", "--out", out]) == 0
    bundle = Path(out, "bundle.csv").read_text()
    assert bundle.startswith("date,activity")
    assert len(bundle.splitlines()) == 61
    meta = json.loads(Path(out, "planted_lags.json").read_text())
    assert meta["months"] == 60 and "planted_leads" in meta


def test_generate_is_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["generate", "--seed", "3", "--months", "48"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert read(Path(a, "bundle.csv")) == read(Path(b, "bundle.csv"))
    assert read(Path(a, "planted_lags.json")) == read(Path(b, "planted_lags.json"))


def test_generate_rejects_short_history(tmp_path):
    assert main(["generate", "--months", "12", "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_unknown_config_key_is_an_error(tmp_path):
    cfg = base_config(str(tmp_path / "out"))
    cfg["lerning_rate"] = 0.1  # typo must be caught
    path = write_config(tmp_path, cfg)
    assert main(["scan", "--config", path]) == 2


def test_wrong_schema_version(tmp_path):
    cfg = base_config(str(tmp_path / "out"))
    cfg["schema_version"] = 99
    path = write_config(tmp_path, cfg)
    assert main(["scan", "--config", path]) == 2


def test_unknown_preset_name(tmp_path):
    cfg = base_config(str(tmp_path / "out"), networks=["network9"])
    path = write_config(tmp_path, cfg)
    assert main(["ensemble", "--config", path]) == 2


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_outputs_and_planted_recovery(tmp_path):
    out = str(tmp_path / "out")
    cfg = base_config(out, months=96, seed=5)
    cfg["data"]["synthetic"]["noise_scale"] = 0.0
    cfg["train_range"] = ["1992-01", "1997-12"]
    cfg["scan"] = {"max_lag": 12, "inputs": ["crude", "gold", "utilities"]}
    path = write_config(tmp_path, cfg)
    assert main(["scan", "--config", path]) == 0
    chosen = json.loads(Path(out, "scan", "chosen_lags.json").read_text())
    assert chosen == {"crude": 7, "gold": 2, "utilities": 3}
    curves = Path(out, "scan", "curves_crude.csv").read_text().splitlines()[1:]
    names = {line.rsplit(",", 1)[1] for line in curves}
    assert len(names) == 12 + 2


def test_scan_missing_input_column(tmp_path):
    out = str(tmp_path / "out")
    cfg = base_config(out)
    cfg["scan"] = {"max_lag": 6, "inputs": ["not_a_column"]}
    path = write_config(tmp_path, cfg)
    assert main(["scan", "--config", path]) == 2


# ---------------------------------------------------------------------------
# ensemble / train / report
# ---------------------------------------------------------------------------

def test_ensemble_writes_all_artifacts(tmp_path):
    out = str(tmp_path / "out")
    path = write_config(tmp_path, base_config(out))
    assert main(["ensemble", "--config", path]) == 0
    for rel in (
        "report.txt",
        "report.csv",
        "predictions.csv",
        "equity.csv",
        "model/manifest.json",
        "model/network1.json",
        "model/network2.json",
        "model/master.json",
    ):
        assert Path(out, rel).exists(), rel
    header = Path(out, "report.txt").read_text().splitlines()[0]
    pos = [header.index(c) for c in REPORT_COLUMNS]
    assert pos == sorted(pos)
    predictions = Path(out, "predictions.csv").read_text().splitlines()
    assert predictions[0] == "date,actual,network1,network2,master"
    assert len(predictions) == 1 + 12


def test_ensemble_runs_are_byte_identical(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    path_a = write_config(tmp_path, base_config(out_a), "a.json")
    path_b = write_config(tmp_path, base_config(out_b), "b.json")
    assert main(["ensemble", "--config", path_a]) == 0
    assert main(["ensemble", "--config", path_b]) == 0
    for rel in ("report.txt", "report.csv", "predictions.csv", "equity.csv", "model/master.json"):
        assert read(Path(out_a, rel)) == read(Path(out_b, rel)), rel


def test_report_command_rerenders_from_saved_model(tmp_path):
    out = str(tmp_path / "out")
    path = write_config(tmp_path, base_config(out))
    assert main(["ensemble", "--config", path]) == 0
    before = read(Path(out, "report.txt"))
    assert main(["report", "--config", path]) == 0
    assert read(Path(out, "report.txt")) == before


def test_report_locale_comma(tmp_path):
    out = str(tmp_path / "out")
    path = write_config(tmp_path, base_config(out))
    assert main(["ensemble", "--config", path]) == 0
    assert main(["report", "--config", path, "--locale-comma"]) == 0
    text = Path(out, "report.txt").read_text()
    data_lines = text.splitlines()[1:]
    assert any("," in line for line in data_lines)


def test_report_without_model_errors(tmp_path):
    out = str(tmp_path / "out")
    path = write_config(tmp_path, base_config(out))
    assert main(["report", "--config", path]) == 2


def test_train_command_writes_experts(tmp_path):
    out = str(tmp_path / "out")
    path = write_config(tmp_path, base_config(out))
    assert main(["train", "--config", path]) == 0
    assert Path(out, "experts", "network1.json").exists()
    assert Path(out, "experts", "network2.json").exists()
    assert Path(out, "report.csv").exists()


def test_seed_override_requires_synthetic(tmp_path):
    out = str(tmp_path / "out")
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("date,x\n1991-01,1\n1991-02,2\n")
    cfg = base_config(out)
    cfg["data"] = {"csv_path": str(csv_path)}
    path = write_config(tmp_path, cfg)
    assert main(["scan", "--config", path, "--seed", "4"]) == 2


def test_optimized_pipeline_with_restarts(tmp_path):
    out = str(tmp_path / "out")
    cfg = base_config(out, months=96)
    cfg["train_range"] = ["1992-01", "1997-12"]
    cfg["test_range"] = ["1998-01", "1998-12"]
    cfg["restarts"] = {"max_restarts": 3, "target_srm": None}
    cfg["validation_months"] = 24
    path = write_config(tmp_path, cfg)
    assert main(["ensemble", "--config", path]) == 0
    assert Path(out, "model", "master.json").exists()
    log = Path(out, "logs", "restarts_network1.csv").read_text()
    assert log.splitlines()[0] == "candidate,seed,train_err,val_err,srm,wallclock"
    assert len(log.splitlines()) == 1 + 3


def test_optimized_pipeline_is_deterministic(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    for name, out in (("a", out_a), ("b", out_b)):
        cfg = base_config(out, months=96)
        cfg["train_range"] = ["1992-01", "1997-12"]
        cfg["test_range"] = ["1998-01", "1998-12"]
        cfg["search"] = {"hidden_layer_counts": [1], "nodes_per_layer_candidates": [2, 3]}
        cfg["restarts"] = {"max_restarts": 2, "target_srm": None}
        path = write_config(tmp_path, cfg, f"{name}.json")
        assert main(["ensemble", "--config", path]) == 0
    for rel in ("report.csv", "model/master.json", "logs/search_network1.csv",
                "logs/restarts_network1.csv"):
        assert read(Path(out_a, rel)) == read(Path(out_b, rel)), rel


# ---------------------------------------------------------------------------
# failures reported as errors, not tracebacks
# ---------------------------------------------------------------------------

def _warmup_shortfall(cfg):
    cfg["train_range"] = ["1991-06", "1995-12"]


def _divergence(cfg):
    cfg["train"]["learning_rate"] = 1e6


@pytest.mark.parametrize("command", ["train", "ensemble"])
@pytest.mark.parametrize("cause", [_warmup_shortfall, _divergence])
def test_failed_sub_is_named_in_the_error(tmp_path, capsys, command, cause):
    cfg = base_config(str(tmp_path / "out"))
    cause(cfg)
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: sub-network 1 ('network1') failed: ")


def test_diverged_master_is_named_in_the_error(tmp_path, capsys):
    cfg = base_config(str(tmp_path / "out"))
    cfg["master_train"] = {"learning_rate": 1e6, "max_epochs": 5}
    assert main(["ensemble", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: master network failed: ")


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("sub_hidden_layers", "48", "sub_hidden_layers"),
        ("sub_hidden_layers", [], "sub_hidden_layers"),
        ("master_hidden_layers", [4, 0], "master_hidden_layers"),
        ("master_hidden_layers", [True], "master_hidden_layers"),
        ("networks", ["network1", {"name": "x", "features": [{"lag": 2}]}], "'source'"),
        ("networks", ["network1", {"name": "actual", "features": [{"source": "gold"}]}], "'actual'"),
        ("networks", ["network1", {"name": "master", "features": [{"source": "gold"}]}], "'master'"),
    ],
)
def test_bad_config_value_is_named_in_the_error(tmp_path, capsys, key, value, named):
    cfg = base_config(str(tmp_path / "out"))
    cfg[key] = value
    assert main(["ensemble", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "out").exists()
