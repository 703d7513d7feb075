import json
import re
import shutil
from pathlib import Path

import pytest

from econocast.cli import config_from_dict, main
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


@pytest.mark.parametrize("command", ["train", "ensemble"])
def test_every_restart_diverged_is_named_in_the_error(tmp_path, capsys, command):
    cfg = base_config(str(tmp_path / "out"))
    cfg["train"]["learning_rate"] = 1e7
    cfg["restarts"] = {"max_restarts": 3}
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sub-network 1 ('network1') failed: all 3 restarts diverged")
    epoch = int(re.search(r"the last at epoch (\d+)", err).group(1))
    assert 1 <= epoch <= cfg["train"]["max_epochs"]


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
        ("master_hidden_layers", [4, 0], "master_hidden_layers"),
        ("master_hidden_layers", [True], "master_hidden_layers"),
        ("networks", ["network1", {"name": "x", "features": [{"lag": 2}]}], "'source'"),
        ("networks", ["network1", {"name": "actual", "features": [{"source": "gold"}]}], "'actual'"),
        ("networks", ["network1", {"name": "master", "features": [{"source": "gold"}]}], "'master'"),
        *(
            pytest.param(key, value, key_path(named), id=f"{key}={value!r}")
            for key, value, named in [
                ("networks.1.features.0.lag", 2.7, "networks.1.features.0.lag"),
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
        (_set("reports", [5]), "manifest.json.reports"),
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
