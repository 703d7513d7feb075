import hashlib
import json
import os
import re
import shutil
import warnings
from pathlib import Path

import pytest

from econocast import cli, metrics, search
from econocast.cli import config_from_dict, main
from econocast.ensemble import load_ensemble, model_files
from econocast.metrics import REPORT_COLUMNS
from econocast.mlp import expert_to_dict, load_expert


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


@pytest.mark.parametrize("args, error", [
    # the last of 96,109 months from 1991-01 is 10000-01, which no CSV can date;
    # the count is checked before anything is built
    (["--months", "96109"],
     "months must be <= 96108, the months from 1991-01 to 9999-12, got 96109"),
    (["--noise-scale", "nan"], "noise_scale must be a finite number >= 0, got nan"),
    (["--noise-scale", "inf"], "noise_scale must be a finite number >= 0, got inf"),
    (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
    # a larger noise overflows the generated series
    (["--noise-scale", "1e306"], "noise_scale must be <= 1e+300, got 1e+306"),
    (["--noise-scale", "1e308"], "noise_scale must be <= 1e+300, got 1e+308"),
], ids=["months=96109", "noise-scale=nan", "noise-scale=inf", "seed=-1", "noise-scale=1e306",
        "noise-scale=1e308"])
@pytest.mark.filterwarnings("error")
def test_generate_names_a_bad_argument_and_writes_nothing(tmp_path, capsys, args, error):
    assert main(["generate", *args, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "out").exists()


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


def test_scan_rejects_a_column_name_that_leaves_the_output_dir(tmp_path, capsys):
    rows = [f"{1990 + i // 12}-{i % 12 + 1:02d},{100 + i % 7},{i}" for i in range(48)]
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("date,activity,../../x\n" + "\n".join(rows) + "\n")
    cfg = base_config(str(tmp_path / "out"))
    cfg["data"] = {"csv_path": str(csv_path)}
    cfg["train_range"] = ["1991-01", "1992-12"]
    cfg["scan"] = {"max_lag": 2}
    assert main(["scan", "--config", write_config(tmp_path, cfg)]) == 2
    assert "'../../x'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# sha256 of every file that `generate --seed 3 --months 120` and a `scan` of
# all 24 of its inputs at max_lag 3 write, recorded with the per-element
# Python loops that the numpy scan path replaced.
SCAN_DIGESTS = {
    "data/bundle.csv": "df1685ecd137c7721672dc98153eca679a8c7b07bc7c9918b6d2a7d4b470a990",
    "data/planted_lags.json": "5d7cf71a528874bb941274d28aff45bf68d9d429e213daf0ae42b1c7db49e666",
    "out/scan/chosen_lags.json": "231c8c72ca484a05f5976cccf2aee479d6666d05d47394941f62d9d8ffc98f68",
    "out/scan/curves_commerce.csv": "4652dc525e0492f58a818ac0dd27ab8c494cbb0550b77d7cce818330194f929c",
    "out/scan/curves_commodities.csv": "7644f29defe2bd86c37ef028d05360dc6d5a2babb54957cccf885ab534e2d815",
    "out/scan/curves_communal_services.csv": "3545da2426f6140bf26600d6ea14f46d4fbf555708a5c3c608125aa95ce37403",
    "out/scan/curves_construction.csv": "f9ebeb91d2754d9702852fe6d7ffe50c029ae8ed767a4abdb0de860ca1a27e93",
    "out/scan/curves_copper.csv": "5739aa88120ecd48492963a825742bd5177ec94d71917c6b486db7c0245f1e30",
    "out/scan/curves_crude.csv": "635dc87f2f3aa3a6c07181c5bc2d78b9ce803785796846a575448a298eaf5de3",
    "out/scan/curves_eurodollar.csv": "c044e80b435925c240e11edad3f282d6bdfd543981f7f873a87d6751b6a2a9fe",
    "out/scan/curves_exchange_rate.csv": "2cd1bc309029d9ec9bfa5bcda1ae5e861280d4a6a2b4e3d579720bc53187b042",
    "out/scan/curves_finance_insurance.csv": "9b12d10b973ba19b718300e00c7db9d61fcc09307a270a542dff6a2256966f58",
    "out/scan/curves_gold.csv": "7604414c0c4a7fe1fa455fd1f6b38724c326893b862cc35aaab7a5d85c1411e9",
    "out/scan/curves_import_rights.csv": "77bb9a1f8518025e4dac1f9cc8b09041b643d09a1fad1a6997d1cbc9b3593907",
    "out/scan/curves_inflation.csv": "c8777ff10fd9f0d4999cef2d90316979efd5f20362be55a058432344e4939973",
    "out/scan/curves_loan_rate.csv": "90b6e8db3e9c153f50bf31471bfd384173e2c1c85ee1b9f0d79738f9ec801e34",
    "out/scan/curves_manufacturing.csv": "8d117a87201dab778fc7555fe3de5e7daf6d06ef2d21bd516969a691f9f43fd8",
    "out/scan/curves_mining.csv": "1eb686ba03fc5a4bfa916cfbd02ff1b92cda649814fa4f3a15e6953e93e71679",
    "out/scan/curves_oil.csv": "d12e35df61b4f32ed92c6b329b17a3d71c4b53a9b2c3e6ceda33a3a780191b05",
    "out/scan/curves_power.csv": "6b63af9a039de76e8c31dfe66cdb00bbc49fe9b9bea6a067ff7e27bc23e2631f",
    "out/scan/curves_professional_services.csv": "0e5d72d43644357b7062995f139b7aa9e11c61187da84f22b72bd4a4a35f5d64",
    "out/scan/curves_real_estate.csv": "220af46cd84cdcb8013790377d2e1b061b727e017385eebc7849b909cff0ce91",
    "out/scan/curves_stocks_foreign.csv": "bf535940b86e5d17cbb1864c212348765b438531c78ef57ad242b2abcaf4ba2e",
    "out/scan/curves_stocks_local.csv": "da803e0d597e73abf3af0714bb1a777a02c83cd621e4e2a4c55532d86967193a",
    "out/scan/curves_tbill_rate.csv": "668aff15ce7afb6e7a99cd59408b8751d21014431b96fed5a36ba1cb36e2630f",
    "out/scan/curves_utilities.csv": "91cd6dfdf2995f5b4d13fdbda4c2ee3d7cfe04e109aeb0b4a1d579d9dfd5301b",
    "out/scan/curves_water_power.csv": "a3aa8356352718ac8f904c613b0ef953318917f7df86b603b91fd4ce858beedf",
    "out/scan/scan_commerce.csv": "d23d8ba8aa8ca29820e426420828633eb3cf4affa3c149c7e6484326912a69e9",
    "out/scan/scan_commodities.csv": "8fc300581ce5fa1db769e2b4bb34665e07c522e754a9eac1293956772084a933",
    "out/scan/scan_communal_services.csv": "5b5df5436960e313bbc7dc1f3093cb2743770b5383f657670701941ce7d7e6df",
    "out/scan/scan_construction.csv": "e8002f37ea1948d2c0faee12620f88923330e371f519604455ed741e4e79dff9",
    "out/scan/scan_copper.csv": "c7bdc18089563a9cb1516e3414606ca53aba3045b2f2f3274fdfff6e4060820a",
    "out/scan/scan_crude.csv": "fbd22e83046c8b1ed7c475678acbe6a8bbf27a0aaadb9059e475794facbeff8c",
    "out/scan/scan_eurodollar.csv": "cb008a9812ec282c6538d096a50a1016c30fe76833012f80255125ab32122dbf",
    "out/scan/scan_exchange_rate.csv": "b7c40bcfd42180bf289211ebcf6a6182fe4ff50cb00ce7ff5543a4892a412884",
    "out/scan/scan_finance_insurance.csv": "433d78912c5f3c6ab8845ff59f83becd00830f6bb26d6668446efbc99789d1cd",
    "out/scan/scan_gold.csv": "5ac27cb8679b40f197439e50d4a0b49d9e10f08a882e047433950afddb0d255e",
    "out/scan/scan_import_rights.csv": "fda2a724a47f7b3abd1ffb4cc97384a4c3eaba9dfc414c11975b2d5a4df51107",
    "out/scan/scan_inflation.csv": "e76587da3622451d2ba84dfcee554da13447eeda7a0012b135242266af78c4a9",
    "out/scan/scan_loan_rate.csv": "7268ae4dced3b42c7a1c171dff9128ea697bd1e946144da3a7a4ee5f2a7b8ef8",
    "out/scan/scan_manufacturing.csv": "d2c8876cf68c7ceebcbc8a48c59899a6f669f5a185eb85db2892c45f7e66e6d8",
    "out/scan/scan_mining.csv": "2f5f115c6fe6f8cff68e289dcb14ef0995b9db572d27628acc2def4526767133",
    "out/scan/scan_oil.csv": "11a05096d6b37a67beb54e1fd8f5bb67903c7fcdd3a4890230064d9a39b4fcc4",
    "out/scan/scan_power.csv": "2ab62babec851ff8943e23b2891acece32647e982721f0d55b585f8c3658a9db",
    "out/scan/scan_professional_services.csv": "9e3428f3233c109858adccfe1efa272ca20bd7174d43232212e942d40de32086",
    "out/scan/scan_real_estate.csv": "d8351ffef53ae5230124c3819437750658cea4d509aeb99a894864ab6377a740",
    "out/scan/scan_stocks_foreign.csv": "fae7550402f3c83428399408aee4060ab570d49c435280521a7bc33badf27046",
    "out/scan/scan_stocks_local.csv": "3d62c4bb8f8d2fe9bb635c50549b70a7b73261693b269dbc560e1a0e21dcfc3b",
    "out/scan/scan_tbill_rate.csv": "dccbbc82bdcf46b00974485a6ed01e9265c83274cb4211684aa81f68008b600f",
    "out/scan/scan_utilities.csv": "1103eb39639fe4edd12c568f5550a96795e29e346dbd38a336f852a7bc63fb16",
    "out/scan/scan_water_power.csv": "17a8e29f845dafe1b8100b99340d7909fe2272c449ddb9211c9e9c6110aed659",
}


def test_generate_and_scan_bytes_match_the_pinned_digests(tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["generate", "--seed", "3", "--months", "120", "--out", str(data)]) == 0
    cfg = {
        "schema_version": 1,
        "data": {"csv_path": str(data / "bundle.csv")},
        "train_range": ["1992-01", "2000-12"],
        "scan": {"max_lag": 3},
        "out_dir": str(out),
    }
    assert main(["scan", "--config", write_config(tmp_path, cfg)]) == 0
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for root in (data, out)
        for path in root.rglob("*")
        if path.is_file()
    }
    assert written == SCAN_DIGESTS


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


def test_equity_ends_with_the_benchmark_rows_scan_writes_over_the_test_range(tmp_path):
    out = tmp_path / "out"
    config = base_config(str(out))
    assert main(["ensemble", "--config", write_config(tmp_path, config)]) == 0
    # a scan whose range is the ensemble's test range
    config.update(train_range=config["test_range"], scan={"max_lag": 2, "inputs": ["gold"]})
    assert main(["scan", "--config", write_config(tmp_path, config, "scan.json")]) == 0
    equity = Path(out, "equity.csv").read_text().splitlines(keepends=True)
    curves = Path(out, "scan", "curves_gold.csv").read_text().splitlines(keepends=True)
    benchmarks = [line for line in curves if line.endswith((",perfect\n", ",buy_hold\n"))]
    assert len(benchmarks) == 2 * 11 and benchmarks[0].startswith("1996-02,")
    assert equity[-len(benchmarks):] == benchmarks
    assert all(line.endswith(",master_strategy\n") for line in equity[1:-len(benchmarks)])


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


def tree_state(root):
    """Every file under root, with the inode and mtime that a rewrite would change."""
    return {p: (p.stat().st_ino, p.stat().st_mtime_ns) for p in Path(root).rglob("*")}


@pytest.mark.parametrize("command, flag", [
    ("scan", ["--locale-comma"]),
    ("scan", ["--leaky-selection"]),
    ("report", ["--seed", "3"]),
    ("report", ["--leaky-selection"]),
])
def test_a_command_rejects_a_flag_it_does_not_read(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(str(out)))
    if command == "report":
        assert main(["ensemble", "--config", path]) == 0
    before = tree_state(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", path, *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert tree_state(tmp_path) == before


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


def lockstep_config(out_dir, case):
    """A small config whose subs train as several lockstep batches
    ("hidden_layers": three subs in two hidden shapes), or are all restart
    winners handed through, so none is left to train ("selected")."""
    cfg = base_config(out_dir, months=96, epochs=8)
    cfg["train_range"] = ["1992-01", "1997-12"]
    cfg["test_range"] = ["1998-01", "1998-12"]
    if case == "hidden_layers":
        gold = {"source": "gold", "transforms": [{"kind": "sma", "window": 3}], "lag": 2}
        cfg["networks"] = [
            "network1",
            {"name": "gold_trend", "features": [gold], "hidden_layers": [2, 2]},
            {"name": "gold_wide", "features": [gold, dict(gold, lag=1)], "hidden_layers": [2, 2]},
            "network2",
        ]
    else:
        cfg["search"] = {"hidden_layer_counts": [1], "nodes_per_layer_candidates": [2, 3]}
        cfg["restarts"] = {"max_restarts": 3, "target_srm": None}
    return cfg


# sha256 of every file that `ensemble` then `train` write for lockstep_config.
LOCKSTEP_DIGESTS = {
    "hidden_layers": {
        "equity.csv": "6b3c68dd7f80d8c097d0bc0825651bf858a24678427393e6f2b83850362b5f10",
        "experts/gold_trend.json": "a44a81bd6d5e8b4bb52ff2f2b187f4ab7761e9d2e5cd9bb84a2c123ce537f939",
        "experts/gold_wide.json": "f01c508682f107c92cd4ea8d10e89bd6189dbba047783c33266eed5702451f9c",
        "experts/network1.json": "1b6b0ebdad6ffc48a64e4e238226b482e6317aa2713bfcc0c54371caa381f1ed",
        "experts/network2.json": "99ee55f9ec7212c4bd4bf81a7b99f505fe16ff3b980095e7b81acd0f87201217",
        "model/gold_trend.json": "a44a81bd6d5e8b4bb52ff2f2b187f4ab7761e9d2e5cd9bb84a2c123ce537f939",
        "model/gold_wide.json": "f01c508682f107c92cd4ea8d10e89bd6189dbba047783c33266eed5702451f9c",
        "model/manifest.json": "0d7ff759474a9568cc908042fcf34eeb78978e04050ddcdf18fe1f3aa3ca4c6d",
        "model/master.json": "c69c18c551e854d7a9181ddf129de2aca0fa831d90f0a849349bbdb402980f9f",
        "model/network1.json": "1b6b0ebdad6ffc48a64e4e238226b482e6317aa2713bfcc0c54371caa381f1ed",
        "model/network2.json": "99ee55f9ec7212c4bd4bf81a7b99f505fe16ff3b980095e7b81acd0f87201217",
        "predictions.csv": "84872a47c0127a8c0773cf0693f097a9f96be49ac576526cb6a4fce23967e858",
        "report.csv": "588873bdbf4795daafbfca8c1a14a0097bd42a88df5859509fa36a341a50d226",
        "report.txt": "d0a01fa75a2ddb7153730c63255bfee42b478c4e35af0f91748505549afa2880",
    },
    "selected": {
        "equity.csv": "6b3c68dd7f80d8c097d0bc0825651bf858a24678427393e6f2b83850362b5f10",
        "experts/network1.json": "cc463fe6ef3785b982755fb1763657a29b2dc9d8a39560a7c831bbb8d471df2a",
        "experts/network2.json": "dc37fe323776419913aabc8c6cf8a58d066a576338f714f10e0e95e9b5dc0710",
        "logs/restarts_network1.csv": "74f0bdcfa69231e8eb8e53c039abe03a7e07f8a6c1e82cc7f22bb54d4b66eea5",
        "logs/restarts_network2.csv": "420488763f8e89d386e365930723e90e66cc9c5d2db58ec615ec6321e3022b6b",
        "logs/search_network1.csv": "1df2e952455d79303d51e2185e9fd826b5e3bf9b77a3a66bbe5b1a0c818a91bf",
        "logs/search_network2.csv": "6845e528b629e56e91c10b1b5224243f7f09d0bcb66bfff6cb80f0dcc39d001c",
        "model/manifest.json": "f9a61c57e01a71b7ac2fb8fae9635bcd9a44bd42aa3d6ca5bb0a6d807fe4628b",
        "model/master.json": "0c7d44e2b2c4f4e9098377f5ca84915d7e68a7236a16d89d38657c3aeb41c5d4",
        "model/network1.json": "cc463fe6ef3785b982755fb1763657a29b2dc9d8a39560a7c831bbb8d471df2a",
        "model/network2.json": "dc37fe323776419913aabc8c6cf8a58d066a576338f714f10e0e95e9b5dc0710",
        "predictions.csv": "c909b73bb2c1af4828bec05623e17834c6d2e8ae6335788930eb9b8411fccd94",
        "report.csv": "3525540576ed646d69c06005e9d90240407bb97aa62b234300cb495c6a7aabd6",
        "report.txt": "36a634fcf180b574b08dd8cb07a09d7f7ee7a24b699f1acdf52b6473b88aea99",
    },
}


@pytest.mark.parametrize("case", sorted(LOCKSTEP_DIGESTS))
def test_ensemble_and_train_bytes_match_the_pinned_digests(tmp_path, case):
    out = tmp_path / "out"
    path = write_config(tmp_path, lockstep_config(str(out), case))
    assert main(["ensemble", "--config", path]) == 0
    assert main(["train", "--config", path]) == 0
    written = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    assert written == LOCKSTEP_DIGESTS[case]


# sha256 of logs/ and model/ after `ensemble` then `train` with the README
# search grid, 20 restarts and target_srm 0.6: network1 and network4 stop at
# restart 0, network5 at restart 5, network2 never reaches the target, and
# network4 keeps restart 0, not the restart 1 it keeps with no target.
TARGET_SRM_DIGESTS = {
    "logs/restarts_network1.csv": "446c8256a8a32b8060953b13af964bd03b09456ba46d801e4e2189f63e42efb8",
    "logs/restarts_network2.csv": "992670eef15527f58d0dd316375d7852455fa356f4742788eca10daa8112f772",
    "logs/restarts_network4.csv": "a47cc3f49a90be383c68000cbfafbc70551dc25e5581d2669833add8ee1985e8",
    "logs/restarts_network5.csv": "2667fa4ff80f34acc0b9dee32f0d648d775618a8d5ec60ee29b95fb94e403afb",
    "logs/search_network1.csv": "38073a2379d1e8ddacd78e80d518e8bfe3043fa6bcaba771412e5bece2971fec",
    "logs/search_network2.csv": "29e41a92cc3934d9881b869b0f91cc540998d722c90d33daf4abc1dec1063f82",
    "logs/search_network4.csv": "69692446ce43dbf1b3828b5891930a40af1b64b080ccb2cde0fbe515e17b3d1a",
    "logs/search_network5.csv": "4c1813ce5e344f4f1193f757756921fd1ab96cf6764cc56f8852361c602bd0db",
    "model/manifest.json": "5c979c41ba20e460720d9b1d4401a819be472aa37fac9bd019c73712c8949861",
    "model/master.json": "e18ae7cf6f4652e66e0112136818b4c1c5e6b9bb397b1506083d9a766b290b97",
    "model/network1.json": "cc463fe6ef3785b982755fb1763657a29b2dc9d8a39560a7c831bbb8d471df2a",
    "model/network2.json": "90a6b1a9bcf2fcc87f3fa55a847d62d3dbf4d90717252e752167afa6d993c2af",
    "model/network4.json": "7fc0bccebefdc1ff47d6a19f50307fe18b24b4c2460e10579875c7b0dff7c3f5",
    "model/network5.json": "acc20d398077a005ad88d2ff7419d6532891869c623e0411431948cfa1edf6a5",
}


def test_target_srm_stops_each_sub_where_the_pinned_digests_say(tmp_path):
    out = tmp_path / "out"
    networks = ["network1", "network2", "network4", "network5"]
    cfg = base_config(str(out), months=96, epochs=8, networks=networks)
    cfg["train_range"] = ["1992-01", "1997-12"]
    cfg["test_range"] = ["1998-01", "1998-12"]
    cfg["search"] = {"hidden_layer_counts": [1, 2], "nodes_per_layer_candidates": [2, 4, 8, 16]}
    cfg["restarts"] = {"max_restarts": 20, "target_srm": 0.6}
    path = write_config(tmp_path, cfg)
    assert main(["ensemble", "--config", path]) == 0
    assert main(["train", "--config", path]) == 0
    written = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.parent.name in ("logs", "model")
    }
    assert written == TARGET_SRM_DIGESTS
    logs = [(out / "logs" / f"restarts_{n}.csv").read_text() for n in networks]
    assert [len(log.splitlines()) - 1 for log in logs] == [1, 20, 1, 6]


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


@pytest.mark.parametrize(
    "leaky, fit_on, scored_on",
    [
        # the last validation_months (24) of the training range
        (None, ("1992-01", "1993-12"), ("1994-01", "1995-12")),
        # the full training range, scored on the testing range
        ("flag", ("1992-01", "1995-12"), ("1996-01", "1996-12")),
        ("config", ("1992-01", "1995-12"), ("1996-01", "1996-12")),
    ],
)
def test_leaky_selection_chooses_the_ranges_restarts_see(tmp_path, monkeypatch, leaky, fit_on,
                                                         scored_on):
    seen = []
    maximize_sharpes = search.maximize_sharpes

    def spy(shapes, matrices, *args):
        seen.extend(tuple((str(m.start), str(m.end)) for m in pair) for pair in matrices)
        return maximize_sharpes(shapes, matrices, *args)

    monkeypatch.setattr(search, "maximize_sharpes", spy)
    cfg = base_config(str(tmp_path / "out"), epochs=5)
    cfg["restarts"] = {"max_restarts": 2}
    if leaky == "config":
        cfg["leaky_selection"] = True
    argv = ["train", "--config", write_config(tmp_path, cfg)]
    assert main(argv + (["--leaky-selection"] if leaky == "flag" else [])) == 0
    assert seen == [(fit_on, scored_on)] * 2


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


@pytest.mark.parametrize("command", ["train", "ensemble"])
@pytest.mark.parametrize("diverging", [False, True])
@pytest.mark.parametrize("selection", [False, True])
def test_failed_later_sub_is_named_in_the_error(tmp_path, capsys, command, diverging, selection):
    # Network 3 reads 24 months back, but the data start only 12 months before
    # the train range. Every sub is assembled before any trains, model
    # selection included, so with a learning rate that makes network 1
    # diverge, network 3 is still named, and no selection log is written.
    deep = {"name": "deep", "features": [{"source": "activity", "lag": 24}]}
    cfg = base_config(str(tmp_path / "out"), networks=["network1", "network2", deep])
    if diverging:
        _divergence(cfg)
    if selection:
        cfg["search"] = {"hidden_layer_counts": [1], "nodes_per_layer_candidates": [2, 3]}
        cfg["restarts"] = {"max_restarts": 3}
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: sub-network 3 ('deep') failed: ")
    assert not (tmp_path / "out" / "logs").exists()


@pytest.mark.parametrize("command", ["train", "ensemble"])
def test_every_restart_diverged_is_named_in_the_error(tmp_path, capsys, command):
    cfg = base_config(str(tmp_path / "out"))
    cfg["train"]["learning_rate"] = 1e7
    cfg["search"] = {"hidden_layer_counts": [1], "nodes_per_layer_candidates": [2, 3]}
    cfg["restarts"] = {"max_restarts": 3}
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sub-network 1 ('network1') failed: all 3 restarts diverged")
    epoch = int(re.search(r"the last at epoch (\d+)", err).group(1))
    assert 1 <= epoch <= cfg["train"]["max_epochs"]
    assert not (tmp_path / "out" / "logs").exists()


@pytest.mark.parametrize("command", ["train", "ensemble"])
def test_overlapping_test_range_is_named_before_anything_trains(tmp_path, capsys, command):
    cfg = base_config(str(tmp_path / "out"))
    cfg["test_range"] = ["1995-01", "1996-12"]  # the train range ends 1995-12
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: config.test_range must start after config.train_range ends\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key, value", [
    ("scan", "train_range", ["1990-01", "1995-12"]),
    ("train", "train_range", ["1990-01", "1995-12"]),
    ("ensemble", "train_range", ["1991-06", "1997-01"]),
    ("train", "test_range", ["1996-01", "1997-01"]),
    ("ensemble", "test_range", ["1996-06", "1999-12"]),
])
def test_a_range_the_target_does_not_cover_is_named_before_any_work(
    tmp_path, capsys, monkeypatch, command, key, value
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "_detect_cycle", no_work)
    monkeypatch.setattr(cli.lagscan, "scan", no_work)
    cfg = base_config(str(tmp_path / "out"))  # 72 months, 1991-01..1996-12
    cfg[key] = value
    if key == "train_range":
        cfg["test_range"] = ["2000-01", "2000-12"]  # after it, and off the target too
    cfg["scan"] = {"max_lag": 3, "inputs": ["gold"]}
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: config.{key} {value[0]}..{value[1]} runs outside the target 'activity', "
        "which covers 1991-01..1996-12\n"
    )
    assert not (tmp_path / "out").exists()


def test_scan_ignores_the_test_range(tmp_path):
    cfg = base_config(str(tmp_path / "out"))
    cfg["test_range"] = ["1995-01", "1996-12"]
    cfg["scan"] = {"max_lag": 3, "inputs": ["gold"]}
    assert main(["scan", "--config", write_config(tmp_path, cfg)]) == 0


def test_a_scan_of_no_inputs_writes_only_an_empty_choice_even_off_the_target(tmp_path):
    # nothing is scanned, so nothing checks the train_range against the
    # 72-month target, nor is a benchmark block built over it
    out = tmp_path / "out"
    cfg = base_config(str(out))
    cfg["train_range"] = ["2030-01", "2031-12"]
    cfg["scan"] = {"inputs": []}
    assert main(["scan", "--config", write_config(tmp_path, cfg)]) == 0
    written = [p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()]
    assert written == ["scan/chosen_lags.json"]
    assert json.loads((out / "scan" / "chosen_lags.json").read_text()) == {}


@pytest.mark.parametrize("command", ["train", "ensemble"])
def test_search_on_an_all_zero_target_names_sub_1(tmp_path, capsys, command):
    # The target is 0 over the core range (1992-01..1993-12), so no candidate's
    # error percentage is defined; every sub shares the target, and sub 1 is named.
    rows = []
    for i in range(96):
        month = f"{1990 + i // 12}-{i % 12 + 1:02d}"
        activity = 0 if "1992-01" <= month <= "1993-12" else 100 + i % 12
        rows.append(f"{month},{activity},{i % 7 + 0.1 * i}")
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("date,activity,x\n" + "\n".join(rows) + "\n")
    networks = [
        {"name": "flat", "features": [{"source": "x", "lag": 1}]},
        {"name": "wide", "features": [{"source": "x", "lag": 2}, {"source": "x", "lag": 3}]},
    ]
    cfg = base_config(str(tmp_path / "out"), epochs=5, networks=networks)
    cfg["data"] = {"csv_path": str(csv_path)}
    cfg["search"] = {"hidden_layer_counts": [1], "nodes_per_layer_candidates": [2, 3]}
    cfg["restarts"] = {"max_restarts": 2}
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: sub-network 1 ('flat') failed: error percentage undefined for an all-zero target\n"
    )
    assert not (tmp_path / "out" / "logs").exists()


def test_diverged_master_is_named_in_the_error(tmp_path, capsys):
    cfg = base_config(str(tmp_path / "out"))
    cfg["master_train"] = {"learning_rate": 1e6, "max_epochs": 5}
    assert main(["ensemble", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: master network failed: ")


def readme_config():
    """The complete example config in README.md."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("A complete configuration, with every key:", 1)[1]
    return json.loads(block.split("```json\n", 1)[1].split("```", 1)[0])


def test_readme_example_config_is_valid():
    config = config_from_dict(readme_config())
    assert [entry.name for entry in config.networks] == ["network1", "gold_trend"]
    assert config.networks[1].hidden_layers == (6,)
    assert config.networks[1].features[0].lag == 2
    assert config.search is not None and config.restarts is not None


def object_items(node, path=""):
    """(dotted path, value) of every object key in a JSON value; list indices
    are path segments too, so keys inside the objects of a list are reached."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        here = f"{path}{key}"
        if isinstance(node, dict):
            yield here, value
        if isinstance(value, (dict, list)):
            yield from object_items(value, here + ".")


def set_key(config, key, value):
    *parents, last = key.split(".")
    node = config
    for part in parents:
        node = node[int(part)] if isinstance(node, list) else node.setdefault(part, {})
    node[int(last) if isinstance(node, list) else last] = value


def key_path(key):
    """How an error names a dotted test key: config.a[1].b."""
    return "config." + re.sub(r"\.(\d+)", r"[\1]", key)


JSON_VALUES = {"null": None, "bool": True, "int": 7, "float": 2.5, "str": "x", "list": [],
               "object": {}}
JSON_TYPE = {type(None): "null", bool: "bool", int: "int", float: "float", str: "str",
             list: "list", dict: "object"}
# Types a key takes besides the type of its value in the README config: null
# where null means "not given", and an integer wherever a number goes.
ALSO_ACCEPTED = {
    "master_train": {"null"},
    "search": {"null"},
    "restarts": {"null"},
    "restarts.target_srm": {"int", "float"},
    "scan.inputs": {"null"},
    "data.csv_path": {"null"},
    "networks.1.hidden_layers": {"null"},
    "networks.1.features.0.transforms.0.window": {"null"},
    "networks.1.features.0.transforms.0.distance": {"null"},
    "networks.1.features.1.transforms.0.beta": {"null", "int"},
}


def wrong_type_cases():
    for key, value in object_items(readme_config()):
        accepted = {JSON_TYPE[type(value)]} | ALSO_ACCEPTED.get(key, set())
        if "float" in accepted:
            accepted.add("int")
        for name in sorted(set(JSON_VALUES) - accepted):
            yield pytest.param(key, JSON_VALUES[name], key_path(key), id=f"{key}={name}")


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("sub_hidden_layers", "48", "sub_hidden_layers"),
        ("sub_hidden_layers", [], "sub_hidden_layers"),
        ("networks.1.hidden_layers", [],
         "config.networks[1].hidden_layers must be a non-empty list of integers >= 1, got []"),
        ("scan.max_lag", 0, "config.scan.max_lag must be an integer >= 1, got 0"),
        ("data.synthetic.months", 10, "config.data.synthetic: months must be >= 24, got 10"),
        ("data.synthetic.cycle_period", 1,
         "config.data.synthetic: cycle_period must be >= 2, got 1"),
        ("master_hidden_layers", [4, 0], "master_hidden_layers"),
        ("master_hidden_layers", [True], "master_hidden_layers"),
        ("networks", ["network1", {"name": "x", "features": [{"lag": 2}]}], "'source'"),
        ("networks", ["network1", {"name": "actual", "features": [{"source": "gold"}]}], "'actual'"),
        ("networks", ["network1", {"name": "master", "features": [{"source": "gold"}]}], "'master'"),
        ("data.synthetic.seed", -1, "config.data.synthetic: seed must be an integer >= 0, got -1"),
        ("data.synthetic.noise_scale", 1e306,
         "config.data.synthetic: noise_scale must be <= 1e+300, got 1e+306"),
        *(
            pytest.param(key, value, key_path(named), id=f"{key}={value!r}")
            for key, value, named in [
                ("networks.1.features.0.lag", 2.7, "networks.1.features.0.lag"),
                ("train.learning_rate", float("nan"), "train.learning_rate"),
                ("train.init_weight_bound", float("inf"), "train.init_weight_bound"),
                ("data.synthetic.noise_scale", float("nan"), "data.synthetic.noise_scale"),
                ("restarts.target_srm", float("-inf"), "restarts.target_srm"),
                ("leaky_selection", "false", "leaky_selection"),
                ("search.hidden_layer_counts", "12", "search.hidden_layer_counts"),
                ("data", {"csv_path": 5}, "data.csv_path"),
                ("networks.1.features.0.transforms.0.window", "3",
                 "networks.1.features.0.transforms.0.window"),
                ("data.synthetic.months", "156", "data.synthetic.months"),
                ("train.learning_rate", "0.05", "train.learning_rate"),
                ("restarts.target_srm", "high", "restarts.target_srm"),
                ("networks.1.features.0.transforms", "diff", "networks.1.features.0.transforms"),
                ("networks.1.features", "gold", "networks.1.features"),
                ("networks.1.name", "../escape", "networks.1.name"),
                ("networks.1.name", "manifest", "networks.1.name"),
                ("target", "nope", "target"),
                ("validation_months", 1, "validation_months"),
                ("schema_version", True, "schema_version"),
                ("train_range", ["1992-13", "1999-12"], "train_range"),
                ("test_range", ["2003-12", "2000-01"], "test_range"),
                ("restarts.max_restarts", 0, "restarts"),
                ("networks.1.features.0.transforms.0.kind", "nope",
                 "networks.1.features.0.transforms.0"),
                ("networks.1.features.0.transforms.0", {"kind": "rolling_std", "window": 1},
                 "networks.1.features.0.transforms.0"),
                ("networks.1.features.0.colour", "red", "networks.1.features.0"),
                ("networks", ["network1", "network2", "network1"], "networks"),
            ]
        ),
        *wrong_type_cases(),
    ],
)
def test_bad_config_value_is_named_in_the_error(tmp_path, capsys, key, value, named):
    cfg = readme_config()
    cfg["out_dir"] = str(tmp_path / "out")
    set_key(cfg, key, value)
    assert main(["ensemble", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    """Config path and output directory of one small ensemble run."""
    root = tmp_path_factory.mktemp("saved")
    path = write_config(root, base_config(str(root / "out")))
    assert main(["ensemble", "--config", path]) == 0
    return path, root / "out"


def _drop(key):
    def edit(manifest):
        del manifest[key]
        return manifest
    return edit


def _set(key, value):
    def edit(manifest):
        manifest[key] = value
        return manifest
    return edit


def _set_report_field(manifest):
    manifest["reports"][0][1]["rmse"] = "x"
    return manifest


def _rename_first_report(manifest):
    manifest["reports"][0][0] = "bogus"
    return manifest


def _truncate_reports(manifest):
    del manifest["reports"][2:]  # the master's row goes
    return manifest


def _reverse_subs(manifest):
    """Sub order reversed with its seeds and report rows, so only the master's
    inputs disagree."""
    manifest["sub_networks"].reverse()
    manifest["seeds"][:-1] = manifest["seeds"][-2::-1]
    manifest["reports"][:-1] = manifest["reports"][-2::-1]
    return manifest


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda manifest: [], "manifest.json must be an object"),
        (lambda manifest: {"schema_version": 1}, "'sub_networks'"),
        (_drop("target"), "'target'"),
        (_set("sub_networks", "network1"), "manifest.json.sub_networks"),
        (_set("sub_networks", ["../../config", "network2"]), "manifest.json.sub_networks"),
        (_set("sub_networks", ["master", "network2"]), "manifest.json.sub_networks"),
        (_set("seeds", [9, 9, 9]), "manifest.json.seeds"),
        (_reverse_subs, "manifest.json.sub_networks"),
        (_set("reports", [5]), "manifest.json.reports"),
        (_rename_first_report, "manifest.json.reports"),
        (_truncate_reports, "manifest.json.reports"),
        (_set("train_range", ["1992-01"]), "manifest.json.train_range"),
        (_set("test_range", "1996"), "manifest.json.test_range"),
        (_set("extra", 1), "unknown key(s) ['extra']"),
        (_set_report_field, "manifest.json.reports[0].rmse"),
    ],
)
def test_report_names_the_fault_in_a_bad_manifest(tmp_path, capsys, saved_run, edit, named):
    config_path, saved = saved_run
    out = tmp_path / "out"
    shutil.copytree(saved / "model", out / "model")
    manifest_path = out / "model" / "manifest.json"
    manifest_path.write_text(json.dumps(edit(json.loads(manifest_path.read_text()))))
    assert main(["report", "--config", config_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (out / "report.txt").exists()


def _set_expert(key, value):
    def edit(expert):
        expert[key] = value
        return expert
    return edit


def _drop_expert(key):
    def edit(expert):
        del expert[key]
        return expert
    return edit


def _set_normalizer(expert):
    expert["normalizer"]["target_scale"] = "1"
    return expert


def _short_weights(expert):
    expert["weights"][0] = expert["weights"][0][:-1]
    return expert


def _drop_feature(expert):
    expert["features"].pop()
    return expert


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda expert: [], "network1.json must be an object, got []"),
        (_drop_expert("layer_sizes"), "missing required key 'layer_sizes' in "),
        (_drop_expert("normalizer"), "missing required key 'normalizer' in "),
        (_set_expert("rng_seed", "1"), "network1.json.rng_seed must be an integer"),
        (_set_expert("layer_sizes", [4.5, 3, 1]), "network1.json.layer_sizes"),
        (_set_expert("hidden_activation", "tanh"), "network1.json.hidden_activation"),
        (_set_expert("weights", [[["x"]]]), "network1.json.weights"),
        (_set_expert("test_range", ["1996-12", "1996-01"]), "network1.json.test_range"),
        (_set_expert("features", "gold"), "network1.json.features"),
        (_set_expert("extra", 1), "unknown key(s) ['extra'] in "),
        (_set_normalizer, "network1.json.normalizer.target_scale"),
        (_short_weights, "network1.json: layer 0 parameter shapes"),
        (_drop_feature, "network1.json: 9 inputs, 9 normalizer columns and 8 features do not match"),
    ],
)
def test_report_names_the_fault_in_a_bad_expert(tmp_path, capsys, saved_run, edit, named):
    config_path, saved = saved_run
    out = tmp_path / "out"
    shutil.copytree(saved / "model", out / "model")
    expert_path = out / "model" / "network1.json"
    expert_path.write_text(json.dumps(edit(json.loads(expert_path.read_text()))))
    assert main(["report", "--config", config_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (out / "report.txt").exists()


def test_report_reloads_saved_experts_bit_exact(tmp_path, saved_run):
    config_path, saved = saved_run
    out = tmp_path / "out"
    shutil.copytree(saved / "model", out / "model")
    assert main(["report", "--config", config_path, "--out", str(out)]) == 0
    assert read(out / "report.txt") == read(saved / "report.txt")
    for name in ("network1.json", "network2.json", "master.json"):
        expert = load_expert(str(out / "model" / name))
        assert (json.dumps(expert_to_dict(expert), indent=1) + "\n").encode() == read(
            saved / "model" / name
        )


# ---------------------------------------------------------------------------
# one writer: a command returns its files, main writes them, a failed run writes nothing
# ---------------------------------------------------------------------------

def files_under(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in Path(root).rglob("*")
            if p.is_file()}


def test_an_ensemble_failing_while_it_builds_its_files_keeps_the_previous_run(
    tmp_path, monkeypatch, capsys
):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(str(out)))
    assert main(["ensemble", "--config", path, "--seed", "1"]) == 0
    before, first = files_under(out), load_ensemble(str(out / "model"))

    def failing_equity(*args):
        raise ValueError("equity failed")

    monkeypatch.setattr(metrics, "equity_long_csv", failing_equity)
    assert main(["ensemble", "--config", path, "--seed", "2"]) == 2
    assert capsys.readouterr().err == "error: equity failed\n"
    assert files_under(out) == before
    assert sorted(p.name for p in out.iterdir()) == [
        "equity.csv", "model", "predictions.csv", "report.csv", "report.txt"
    ]
    assert model_files(load_ensemble(str(out / "model"))) == model_files(first)


def test_a_scan_replaces_the_scan_directory_whole(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(str(out))
    cfg["scan"] = {"max_lag": 3, "inputs": ["gold", "crude"]}
    assert main(["scan", "--config", write_config(tmp_path, cfg)]) == 0
    cfg["scan"]["inputs"] = ["gold"]
    assert main(["scan", "--config", write_config(tmp_path, cfg)]) == 0
    assert sorted(files_under(out)) == [
        "scan/chosen_lags.json", "scan/curves_gold.csv", "scan/scan_gold.csv"
    ]
    assert json.loads((out / "scan" / "chosen_lags.json").read_text()).keys() == {"gold"}


def test_two_runs_of_a_command_build_the_same_files_in_memory(tmp_path):
    cfg = base_config(str(tmp_path / "never-written"), months=96)
    cfg["train_range"] = ["1992-01", "1997-12"]
    cfg["test_range"] = ["1998-01", "1998-12"]
    cfg["search"] = {"hidden_layer_counts": [1], "nodes_per_layer_candidates": [2, 3]}
    cfg["restarts"] = {"max_restarts": 2, "target_srm": None}
    cfg["scan"] = {"max_lag": 4, "inputs": ["gold", "crude"]}
    config = config_from_dict(cfg)
    for command in (cli.cmd_ensemble, cli.cmd_scan):
        (files_a, message_a), (files_b, message_b) = command(config), command(config)
        built = dict(files_a)
        assert built == dict(files_b) and message_a == message_b
        assert len(built) == (12 if command is cli.cmd_ensemble else 5)
    assert not (tmp_path / "never-written").exists()


@pytest.mark.parametrize("section", ["train", "master_train"])
@pytest.mark.parametrize("bound", [1e308, -0.0])
def test_a_weight_bound_init_cannot_draw_from_is_named(tmp_path, capsys, section, bound):
    cfg = base_config(str(tmp_path / "out"))
    cfg[section] = {"init_weight_bound": bound}
    assert main(["ensemble", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config.{section}: init_weight_bound must be in [0, ")
    assert err.endswith(f", got {bound!r}\n")
    assert not (tmp_path / "out").exists()


def test_a_target_too_large_to_score_is_named_without_warnings(tmp_path, capsys):
    rows = [f"{1990 + i // 12}-{i % 12 + 1:02d},{100 + i % 12},{i % 7}" for i in range(96)]
    rows[30] = "1992-07,1e308,3"  # inside the scanned train range
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("date,activity,x\n" + "\n".join(rows) + "\n")
    cfg = base_config(str(tmp_path / "out"))
    cfg["data"] = {"csv_path": str(csv_path)}
    cfg["scan"] = {"max_lag": 3}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["scan", "--config", write_config(tmp_path, cfg)]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.startswith(
        "error: target 'activity' over 1992-01..1995-12 is too large to score"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "ensemble"])
@pytest.mark.parametrize("column, cells, transforms, error", [
    ("activity", ["1e308"], [], "target 'activity' over 1992-01..1995-12 is too large to score"),
    ("x", ["1e308"], [], "feature 'x~lag1' over 1992-01..1995-12 is too large to score"),
    # A transform that sums the huge cells overflows before any scale check.
    ("x", ["1e308", "1e308"], [{"kind": "sma", "window": 2}],
     "feature 'x~sma2~lag1' is too large to transform: sma2 gives a value that is not finite"),
    ("x", ["1e308", "-1e308"], [{"kind": "diff"}],
     "feature 'x~diff~lag1' is too large to transform: diff gives a value that is not finite"),
], ids=["target", "input", "input-sma", "input-diff"])
def test_a_cell_too_large_to_train_on_is_named_without_warnings(
    tmp_path, capsys, command, column, cells, transforms, error
):
    rows = [{"date": f"{1990 + i // 12}-{i % 12 + 1:02d}", "activity": str(100 + i % 12),
             "x": str(i % 7)} for i in range(96)]
    for i, cell in enumerate(cells):
        rows[30 + i][column] = cell  # from 1992-07 on, inside the train range
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("date,activity,x\n" + "".join(",".join(r.values()) + "\n" for r in rows))
    networks = [{"name": "on_x", "features": [{"source": "x", "transforms": transforms, "lag": 1}]},
                {"name": "on_activity", "features": [{"source": "activity", "lag": 1}]}]
    cfg = base_config(str(tmp_path / "out"), networks=networks)
    cfg["data"] = {"csv_path": str(csv_path)}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.startswith(f"error: sub-network 1 ('on_x') failed: {error}")
    assert not (tmp_path / "out").exists()


SWEEP_VALUES = [None, True, -1, 0, 2.5, "x", [], {}, 1e308, -0.0, [1], "1992-13"]


def small_readme_config():
    """The README config with schedules short enough to train in a blink."""
    cfg = readme_config()
    cfg["train"]["max_epochs"] = cfg["master_train"]["max_epochs"] = 2
    cfg["search"] = {"hidden_layer_counts": [1], "nodes_per_layer_candidates": [2]}
    cfg["restarts"]["max_restarts"] = 2
    cfg["out_dir"] = "out"
    return cfg


def leaf_keys(node, path=""):
    """The dotted path of every value under a JSON value, list items included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield f"{path}{key}"
        if isinstance(value, (dict, list)):
            yield from leaf_keys(value, f"{path}{key}.")


@pytest.mark.parametrize("key", list(leaf_keys(small_readme_config())))
def test_any_value_at_any_key_exits_0_or_2_and_a_failed_run_writes_nothing(
    tmp_path, monkeypatch, capsys, key
):
    for i, value in enumerate(SWEEP_VALUES):
        run_dir = tmp_path / str(i)
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        cfg = small_readme_config()
        set_key(cfg, key, value)
        code = main(["ensemble", "--config", write_config(run_dir, cfg)])
        err = capsys.readouterr().err
        assert code in (0, 2), (value, err)
        if code == 2:
            assert re.match(r"error: .*(config\.|sub-network \d+ \(|master network)", err), (
                value, err)
            assert os.listdir(run_dir) == ["config.json"], value


@pytest.fixture(scope="module")
def readme_bundle(tmp_path_factory):
    """The README config's synthetic data, as `generate` writes it."""
    out = tmp_path_factory.mktemp("readme_bundle")
    synthetic = readme_config()["data"]["synthetic"]
    args = ["--seed", str(synthetic["seed"]), "--months", str(synthetic["months"])]
    assert main(["generate", *args, "--out", str(out)]) == 0
    return (out / "bundle.csv").read_text().splitlines(keepends=True)


@pytest.mark.parametrize("column", ["activity", "gold"])  # the target and an input of both
@pytest.mark.parametrize("cell", ["1e308", "-1e308", "1e200", "5e-324"])
def test_any_extreme_cell_exits_0_or_2_and_a_failed_run_writes_nothing(
    tmp_path, monkeypatch, capsys, readme_bundle, column, cell
):
    # the CSV-cell half of the boundary sweep: one training-range cell (1996-03)
    # of the README data set in turn to each value, and every command run on it
    header = readme_bundle[0].rstrip("\n").split(",")
    lines = list(readme_bundle)
    (row,) = [n for n, line in enumerate(lines) if line.startswith("1996-03,")]
    cells = lines[row].rstrip("\n").split(",")
    cells[header.index(column)] = cell
    lines[row] = ",".join(cells) + "\n"
    (tmp_path / "data.csv").write_text("".join(lines))
    cfg = small_readme_config()
    cfg["data"] = {"csv_path": str(tmp_path / "data.csv")}
    for command in ("ensemble", "train", "scan"):
        run_dir = tmp_path / command
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        config_path = write_config(run_dir, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", config_path])
        err = capsys.readouterr().err
        assert [str(w.message) for w in caught] == [] and "Warning" not in err, (command, err)
        assert code in (0, 2), (command, err)
        if code == 2:
            assert re.match(r"error: .*(sub-network \d+ \(|column|row|target '|input ')", err), (
                command, err)
            assert os.listdir(run_dir) == ["config.json"], command
        elif command == "ensemble":
            assert main(["report", "--config", config_path]) == 0, capsys.readouterr().err
