"""Command-line pipeline: generate synthetic data, scan lags, train experts,
build the stacked ensemble, and emit reports and plot data.

Commands are idempotent: identical config and seed produce byte-identical
outputs, and inputs are never mutated. Each command returns its files, and
main writes them with one artifacts.write_tree call, so a failed run writes
nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from . import ensemble as ens
from . import lagscan, metrics, presets, search
from .artifacts import REQUIRED, JsonObject, is_file_stem, json_text, read_json, write_tree
# `train` is unused here but stays importable from cli: perfbench/selftest.py
# checks that tracing rebinds it in every module that imported it.
from .mlp import TrainConfig, TrainedExpert, expert_to_dict, train  # noqa: F401
from .preprocess import FeatureSpec, WarmupError, dominant_cycle
from .timeseries import (
    CsvFormatError,
    MonthStamp,
    TimeSeries,
    parse_csv,
    read_range,
    render_csv,
    synthesize_economy,
)

__all__ = ["main", "PipelineConfig", "load_config"]

SCHEMA_VERSION = 1

# What a command returns: its files as (path under the output directory, text), and its message.
Output = Tuple[Iterable[Tuple[str, str]], str]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SyntheticParams:
    seed: int = 1
    months: int = 156
    cycle_period: int = 12
    noise_scale: float = 0.1


@dataclass(frozen=True)
class RestartSettings:
    """The `restarts` section: the restart arguments of search.maximize_sharpes."""

    max_restarts: int = 20
    target_srm: float | None = None

    def __post_init__(self) -> None:
        if self.max_restarts < 1:
            raise ConfigError("max_restarts must be >= 1")


class NetworkEntry(NamedTuple):
    """One configured sub-network. `features` is None for a shipped preset,
    whose features depend on the cycle detected in the data."""

    name: str
    features: Tuple[FeatureSpec, ...] | None
    hidden_layers: Tuple[int, ...]


@dataclass(frozen=True)
class PipelineConfig:
    """Validated pipeline configuration (JSON with a versioned schema)."""

    csv_path: str | None
    synthetic: SyntheticParams | None
    target: str
    train_range: Tuple[MonthStamp, MonthStamp]
    test_range: Tuple[MonthStamp, MonthStamp]
    networks: Tuple[NetworkEntry, ...]
    master_hidden_layers: Tuple[int, ...]
    train: TrainConfig
    master_train: TrainConfig
    scan_max_lag: int
    scan_inputs: Tuple[str, ...] | None
    search: search.ArchitectureGrid | None
    restarts: RestartSettings | None
    validation_months: int
    out_dir: str
    leaky_selection: bool


# Pipeline-level epoch defaults. The library TrainConfig default (5000 epochs)
# suits single-network fitting; a whole ensemble run wants shorter schedules,
# and a briefly-trained master generalizes better on near-collinear expert
# predictions.
DEFAULT_SUB_EPOCHS = 120
DEFAULT_MASTER_EPOCHS = 60


def _hidden(
    obj: JsonObject, key: str, default: Tuple[int, ...] | None
) -> Tuple[int, ...] | None:
    """Hidden layer sizes at `key`, or `default` (see JsonObject.get)."""
    return obj.get(
        key, default, (list,), lambda v: len(v) > 0 and all(type(n) is int and n >= 1 for n in v),
        "a non-empty list of integers >= 1",
    )


def _network_entries(config: JsonObject, sub_hidden: Tuple[int, ...]) -> Tuple[NetworkEntry, ...]:
    entries = config.get(
        "networks", presets.NETWORK_NAMES, (list,), lambda v: len(v) > 0, "a non-empty list"
    )
    out = []
    for i, entry in enumerate(entries):
        where = f"{config.path}.networks[{i}]"
        if type(entry) is str:
            if entry not in presets.NETWORK_NAMES:
                raise ConfigError(f"{where} is an unknown preset {entry!r}")
            out.append(NetworkEntry(entry, None, sub_hidden))
            continue
        obj = JsonObject(entry, where)
        name = obj.get("name", REQUIRED, (str,), ens.is_sub_name, ens.SUB_NAME_WANT)
        features = obj.get(
            "features", REQUIRED, (list,), lambda v: len(v) > 0, "a non-empty list of features"
        )
        hidden = _hidden(obj, "hidden_layers", None)
        obj.close()
        specs = tuple(
            FeatureSpec.from_dict(f, f"{where}.features[{j}]") for j, f in enumerate(features)
        )
        out.append(NetworkEntry(name, specs, hidden or sub_hidden))
    names = [entry.name for entry in out]
    if len(set(names)) < len(names):
        raise ConfigError(f"{config.path}.networks repeats a name, got {names}")
    return tuple(out)


def load_config(path: str) -> PipelineConfig:
    return config_from_dict(read_json(path))


def config_from_dict(data: object) -> PipelineConfig:
    config = JsonObject(data, "config")
    config.get(
        "schema_version", REQUIRED, (int,), lambda v: v == SCHEMA_VERSION, str(SCHEMA_VERSION)
    )

    source = config.section("data", REQUIRED)
    csv_path = source.get("csv_path", None, (str,), bool, "a non-empty string")
    synthetic = source.section("synthetic", None)
    synthetic = None if synthetic is None else synthetic.build(SyntheticParams)
    source.close()
    if (csv_path is None) == (synthetic is None):
        raise ConfigError("give one of config.data.csv_path and config.data.synthetic")

    train = config.section("train", {}).build(TrainConfig, max_epochs=DEFAULT_SUB_EPOCHS)
    master_train = config.section("master_train", None)
    master_train = (
        replace(train, max_epochs=DEFAULT_MASTER_EPOCHS) if master_train is None
        else master_train.build(TrainConfig, max_epochs=DEFAULT_MASTER_EPOCHS)
    )

    scan = config.section("scan", {})
    scan_max_lag = scan.get("max_lag", 12, (int,), lambda v: v >= 1, "an integer >= 1")
    scan_inputs = scan.get(
        "inputs", None, (list,), lambda v: all(type(n) is str for n in v),
        "a list of column names",
    )
    scan.close()

    grid = config.section("search", None)
    if grid is not None:
        counts = _hidden(grid, "hidden_layer_counts", (1, 2))
        nodes = _hidden(grid, "nodes_per_layer_candidates", (2, 4, 8, 16))
        grid.close()
        grid = search.ArchitectureGrid(hidden_layer_counts=counts, nodes_per_layer_candidates=nodes)

    restarts = config.section("restarts", None)
    restarts = None if restarts is None else restarts.build(RestartSettings)

    parsed = PipelineConfig(
        csv_path=csv_path,
        synthetic=synthetic,
        target=config.get("target", "activity", (str,)),
        train_range=read_range(config, "train_range", ("1992-01", "1999-12")),
        test_range=read_range(config, "test_range", ("2000-01", "2003-12")),
        networks=_network_entries(config, _hidden(config, "sub_hidden_layers", (4,))),
        master_hidden_layers=_hidden(config, "master_hidden_layers", (4,)),
        train=train,
        master_train=master_train,
        scan_max_lag=scan_max_lag,
        scan_inputs=scan_inputs,
        search=grid,
        restarts=restarts,
        validation_months=config.get(
            "validation_months", 24, (int,), lambda v: v >= 2, "an integer >= 2"
        ),
        out_dir=config.get("out_dir", "out", (str,), bool, "a non-empty string"),
        leaky_selection=config.get("leaky_selection", False, (bool,)),
    )
    config.close()
    return parsed


def _load_sources(config: PipelineConfig) -> Dict[str, TimeSeries]:
    if config.csv_path is not None:
        with open(config.csv_path, "r", encoding="utf-8") as fh:
            sources = parse_csv(fh.read())
    else:
        p = config.synthetic
        try:
            bundle = synthesize_economy(p.seed, p.months, p.cycle_period, p.noise_scale)
        except ValueError as exc:
            raise ConfigError(f"config.data.synthetic: {exc}") from exc
        sources = dict(bundle.series)
    if config.target not in sources:
        raise ConfigError(f"config.target {config.target!r} is not a column of the data")
    return sources


def _check_covered(config: PipelineConfig, target: TimeSeries, *keys: str) -> None:
    """Name the first configured range, of `keys`, that runs outside the target."""
    for key in keys:
        first, last = getattr(config, key)
        if not target.covers(first, last):
            raise ConfigError(f"config.{key} {first}..{last} runs outside the target "
                              f"{config.target!r}, which covers {target.start}..{target.end}")


def _detect_cycle(sources: Mapping[str, TimeSeries], config: PipelineConfig) -> int:
    target = sources[config.target].slice_range(*config.train_range)
    try:
        return dominant_cycle(target)
    except ValueError:
        return 12


def _build_sub_specs(
    config: PipelineConfig, cycle_period: int
) -> List[ens.SubNetworkSpec]:
    return [
        ens.SubNetworkSpec(
            name=name,
            features=(
                presets.preset_features(name, cycle_period, config.target)
                if features is None else features
            ),
            hidden_layers=hidden,
            train_config=replace(config.train, rng_seed=config.train.rng_seed + i),
        )
        for i, (name, features, hidden) in enumerate(config.networks)
    ]


def _selection_ranges(
    config: PipelineConfig,
) -> Tuple[Tuple[MonthStamp, MonthStamp], Tuple[MonthStamp, MonthStamp]]:
    """(core training range, validation range) for model selection."""
    if config.leaky_selection:
        return config.train_range, config.test_range
    first, last = config.train_range
    total = last.months_since(first) + 1
    val_months = min(config.validation_months, total - 12)
    if val_months < 2:
        raise ConfigError("train range too short to carve a validation sub-range")
    val_first = last.plus(-(val_months - 1))
    return (first, val_first.plus(-1)), (val_first, last)


def _prepared_specs(config: PipelineConfig, sources: Mapping[str, TimeSeries]) -> Tuple[
    List[ens.SubNetworkSpec], List[TrainedExpert | None], Tuple[MonthStamp, MonthStamp],
    Dict[str, str],
]:
    """Sub specs after the configured search/restarts, the experts the
    restarts selected (None per sub still to train), the range the final
    experts train on (the core range when selection carved one out), and the
    selection logs as files under logs/. A restart winner was trained on that
    core range from the returned spec's init and config, so it is the expert
    a final fit would train again.

    Every sub is assembled before selection trains, so an assembly fault is
    named first, then the first sub in spec order whose pick failed."""
    if config.test_range[0] <= config.train_range[1]:
        raise ConfigError("config.test_range must start after config.train_range ends")
    _check_covered(config, sources[config.target], "train_range", "test_range")
    specs = _build_sub_specs(config, _detect_cycle(sources, config))
    if config.search is None and config.restarts is None:
        return specs, [None] * len(specs), config.train_range, {}
    core_range, val_range = _selection_ranges(config)
    matrices = ens.assemble_subs(specs, sources, config.target, core_range, val_range)
    configs, hidden = [s.train_config for s in specs], [s.hidden_layers for s in specs]
    logs, picks = {}, [None] * len(specs)
    if config.search is not None:
        try:
            searched = search.search_best_nets(config.search, matrices, configs)
        except ValueError as exc:
            # A search fails only on the target (all zero), which every sub shares.
            raise ens.sub_failed(1, specs[0], exc) from exc
        hidden = [outcome.best_architecture[1:-1] for outcome in searched]
        logs = {f"logs/search_{s.name}.csv": search.search_log_csv(o)
                for s, o in zip(specs, searched)}
    if config.restarts is not None:
        shapes = [(m_core.width, *h, 1) for (m_core, _), h in zip(matrices, hidden)]
        picks = search.maximize_sharpes(
            shapes, matrices, configs, config.restarts.target_srm, config.restarts.max_restarts
        )
    out, selected = [], []
    for number, (spec, h, cfg, pick) in enumerate(zip(specs, hidden, configs, picks), start=1):
        if isinstance(pick, Exception):
            raise ens.sub_failed(number, spec, pick) from pick
        if pick is not None:
            cfg = replace(cfg, rng_seed=pick.expert.rng_seed)
            logs[f"logs/restarts_{spec.name}.csv"] = search.restart_log_csv(pick)
        out.append(replace(spec, hidden_layers=tuple(h), train_config=cfg))
        selected.append(None if pick is None else pick.expert)
    return out, selected, core_range, logs


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> Output:
    bundle = synthesize_economy(args.seed, args.months, args.cycle_period, args.noise_scale)
    files = {"bundle.csv": render_csv(bundle.series),
             "planted_lags.json": json_text(bundle.metadata())}
    return files.items(), f"wrote {os.path.join(args.out, 'bundle.csv')} ({args.months} rows)"


def cmd_scan(config: PipelineConfig) -> Output:
    sources = _load_sources(config)
    target = sources[config.target]
    names = config.scan_inputs
    if names is None:
        names = tuple(n for n in sources if n != config.target)
    missing = [n for n in names if n not in sources]
    if missing:
        raise ConfigError(f"missing input column(s): {', '.join(missing)}")
    unsafe = [n for n in names if not is_file_stem(n)]
    if unsafe:
        raise ConfigError(f"input column name(s) {unsafe} cannot name the scan files")
    if names:  # a scan of no input reads no range
        _check_covered(config, target, "train_range")
    results = {
        n: lagscan.scan(sources[n], target, config.scan_max_lag, *config.train_range,
                        input_name=n, target_name=config.target)
        for n in names
    }

    def files() -> Iterator[Tuple[str, str]]:
        # one target and range, so one perfect and buy-and-hold block for every input
        if results:
            benchmarks = lagscan.benchmark_curves_csv(target.slice_range(*config.train_range))
        for name, result in results.items():
            yield f"scan/scan_{name}.csv", lagscan.scan_table_csv(result)
            # kept until the next is built: freed, its pages would fault in again (3x faults)
            curves = lagscan.lag_curves_csv(result) + benchmarks
            yield f"scan/curves_{name}.csv", curves
        yield "scan/chosen_lags.json", json_text({n: r.chosen_lag for n, r in results.items()})

    scan_dir = os.path.join(config.out_dir, "scan")
    return files(), f"scanned {len(results)} input(s); chosen lags in {scan_dir}/chosen_lags.json"


def _report_files(
    rows: Sequence[Tuple[str, metrics.MetricsReport]], locale_comma: bool
) -> Dict[str, str]:
    return {"report.txt": metrics.render_report_table(rows, locale_comma),
            "report.csv": metrics.render_report_csv(rows)}


def cmd_train(config: PipelineConfig, locale_comma: bool = False) -> Output:
    sources = _load_sources(config)
    specs, selected, train_range, files = _prepared_specs(config, sources)
    fits = ens.fit_subs(specs, sources, config.target, train_range, config.test_range, selected)
    rows = list(zip([spec.name for spec in specs], ens.report_rows(fits, sources[config.target])))
    for spec, fit in zip(specs, fits):
        files[f"experts/{spec.name}.json"] = json_text(expert_to_dict(fit.expert))
    files.update(_report_files(rows, locale_comma))
    return files.items(), f"trained {len(rows)} expert(s); report in {config.out_dir}/report.txt"


def cmd_ensemble(config: PipelineConfig, locale_comma: bool = False) -> Output:
    sources = _load_sources(config)
    specs, selected, train_range, files = _prepared_specs(config, sources)
    spec = ens.EnsembleSpec(
        sub_specs=tuple(specs),
        master_hidden_layers=config.master_hidden_layers,
        master_train_config=config.master_train,
    )
    model = ens.train_ensemble(
        spec, sources, config.target, train_range, config.test_range, selected
    )
    for name, text in ens.model_files(model).items():
        files[f"model/{name}"] = text
    files.update(_report_files(model.reports, locale_comma))

    actual = sources[model.target_name].slice_range(*model.test_range)
    sub_preds, master_pred = model.test_predictions
    columns = {"actual": actual, **dict(zip(model.sub_names, sub_preds)), "master": master_pred}
    files["predictions.csv"] = render_csv(columns)

    signals = metrics.signal_rows(master_pred.values[None])
    strategy = {"master_strategy": metrics.strategy_rows(np.diff(actual.values), signals)[0]}
    # then the perfect and buy-and-hold rows, the block `scan` writes for a target and range
    files["equity.csv"] = (metrics.equity_long_csv(actual.start.plus(1), strategy)
                           + lagscan.benchmark_curves_csv(actual))
    return files.items(), f"ensemble trained; artifacts in {config.out_dir}/"


def cmd_report(config: PipelineConfig, locale_comma: bool = False) -> Output:
    model_dir = os.path.join(config.out_dir, "model")
    if not os.path.isdir(model_dir):
        raise ConfigError(f"no saved model at {model_dir}; run `ensemble` first")
    model = ens.load_ensemble(model_dir)
    return _report_files(model.reports, locale_comma).items(), f"report rewritten from {model_dir}"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _apply_overrides(config: PipelineConfig, args: argparse.Namespace) -> PipelineConfig:
    if getattr(args, "out", None):
        config = replace(config, out_dir=args.out)
    if getattr(args, "leaky_selection", False):
        config = replace(config, leaky_selection=True)
    if getattr(args, "seed", None) is not None:
        if config.synthetic is None:
            raise ConfigError("--seed override requires synthetic data in the config")
        config = replace(config, synthetic=replace(config.synthetic, seed=args.seed))
    return config


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="econocast",
        description="Monthly activity-index forecasting: synthetic data, lag scans, "
        "neural experts, and a stacked master network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic bundle CSV plus planted-lag metadata")
    defaults = SyntheticParams()
    g.add_argument("--seed", type=int, default=defaults.seed)
    g.add_argument("--months", type=int, default=defaults.months)
    g.add_argument("--cycle-period", type=int, default=defaults.cycle_period)
    g.add_argument("--noise-scale", type=float, default=defaults.noise_scale)
    g.add_argument("--out", default="out")

    for name, helptext in (
        ("scan", "score every candidate lag of each input against the target"),
        ("train", "train the configured networks as individual experts"),
        ("ensemble", "train the eight sub-networks plus the master and emit all artifacts"),
        ("report", "re-render the report files from a saved ensemble"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True)
        if name != "report":  # report reads the saved model, not the data
            p.add_argument("--seed", type=int, default=None, help="override the synthetic seed")
        p.add_argument("--out", default=None, help="override the output directory")
        if name in ("train", "ensemble"):
            p.add_argument("--leaky-selection", action="store_true")
        if name != "scan":
            p.add_argument("--locale-comma", action="store_true",
                           help="comma decimals in text tables")

    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            out_dir, (files, message) = args.out, cmd_generate(args)
        else:
            config = _apply_overrides(load_config(args.config), args)
            out_dir = config.out_dir
            if args.command == "scan":
                files, message = cmd_scan(config)
            else:
                handler = {"train": cmd_train, "ensemble": cmd_ensemble, "report": cmd_report}
                files, message = handler[args.command](config, locale_comma=args.locale_comma)
        write_tree(out_dir, files)
    except (ConfigError, CsvFormatError, WarmupError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
