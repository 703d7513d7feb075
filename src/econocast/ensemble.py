"""Stacked master network over the eight sub-networks.

Each sub-network trains on its own feature matrix, all of them in one
mlp.train_many call, which batches them for lockstep training; the master
trains on the sub predictions over the training range only, so nothing from
the test range leaks into any trained parameter.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from .artifacts import REQUIRED, JsonObject, is_file_stem, json_text, read_json, sizes
from .metrics import MetricsReport, indicator_rows, signal_rows
from .mlp import (
    TrainConfig,
    TrainedExpert,
    TrainingDiverged,
    error_percent,
    expert_to_dict,
    init,
    load_expert,
    predict,
    train,
    train_many,
)
from .preprocess import FeatureMatrix, FeatureSpec, assemble
from .timeseries import MonthStamp, TimeSeries, range_to_json, read_range

__all__ = [
    "SubNetworkSpec",
    "EnsembleSpec",
    "EnsembleModel",
    "ExpertFit",
    "report_rows",
    "assemble_subs",
    "fit_subs",
    "sub_failed",
    "train_ensemble",
    "model_files",
    "load_ensemble",
    "MASTER_NAME",
    "SUB_NAME_WANT",
    "is_sub_name",
]

MASTER_NAME = "Master Network"
MODEL_SCHEMA_VERSION = 1

# A sub-network's name is a file stem in the model directory and a column of
# predictions.csv: it may not leave the directory or take another file's or
# column's name.
SUB_NAME_WANT = (
    "a file stem ([A-Za-z0-9_][A-Za-z0-9_.-]*) other than date, actual, master or manifest"
)


def is_sub_name(name: object) -> bool:
    return is_file_stem(name) and name not in ("date", "actual", "master", "manifest")


@dataclass(frozen=True)
class SubNetworkSpec:
    """One sub-network: its features, hidden shape, and training knobs."""

    name: str
    features: Tuple[FeatureSpec, ...]
    hidden_layers: Tuple[int, ...]
    train_config: TrainConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "hidden_layers", sizes("hidden_layers", self.hidden_layers))

    def shape(self) -> Tuple[int, ...]:
        return (len(self.features), *self.hidden_layers, 1)


@dataclass(frozen=True)
class EnsembleSpec:
    """The sub-networks plus the master's hidden shape and training knobs.
    The master's input width is always the number of sub-networks."""

    sub_specs: Tuple[SubNetworkSpec, ...]
    master_hidden_layers: Tuple[int, ...] = (4,)
    master_train_config: TrainConfig = TrainConfig()

    def __post_init__(self) -> None:
        subs = tuple(self.sub_specs)
        if len(subs) < 2:
            raise ValueError("an ensemble needs at least two sub-networks")
        names = [s.name for s in subs]
        if len(set(names)) != len(names):
            raise ValueError("sub-network names must be unique")
        object.__setattr__(self, "sub_specs", subs)
        hidden = sizes("master_hidden_layers", self.master_hidden_layers)
        object.__setattr__(self, "master_hidden_layers", hidden)

    def master_shape(self) -> Tuple[int, ...]:
        return (len(self.sub_specs), *self.master_hidden_layers, 1)


@dataclass(frozen=True)
class EnsembleModel:
    """Trained experts and indicator rows; test_predictions (subs, master) is None once loaded."""

    sub_experts: Tuple[TrainedExpert, ...]
    sub_names: Tuple[str, ...]
    master: TrainedExpert
    reports: Tuple[Tuple[str, MetricsReport], ...]
    target_name: str
    train_range: Tuple[MonthStamp, MonthStamp]
    test_range: Tuple[MonthStamp, MonthStamp]
    test_predictions: Tuple[Tuple[TimeSeries, ...], TimeSeries] | None = field(default=None, compare=False)


def _master_matrix(
    predictions: Sequence[TimeSeries], names: Sequence[str], sub_matrix: FeatureMatrix
) -> FeatureMatrix:
    """The master's rows over a sub matrix's range: one column of predictions
    per sub, and that matrix's target and start, which every sub shares."""
    return FeatureMatrix(
        X=np.column_stack([p.values for p in predictions]),
        y=sub_matrix.y,
        start=sub_matrix.start,
        specs=tuple(FeatureSpec(name) for name in names),
    )


class ExpertFit(NamedTuple):
    """A trained expert with its train and test matrices and its prediction
    over each, computed once for the master's inputs and the report row."""

    expert: TrainedExpert
    train_matrix: FeatureMatrix
    test_matrix: FeatureMatrix
    train_pred: TimeSeries
    test_pred: TimeSeries


def report_rows(fits: Sequence[ExpertFit], actual: TimeSeries) -> List[MetricsReport]:
    """Each fit's indicator row: every test prediction scored as one stack
    against `actual` over the testing range the fits share, then each fit's
    error percentages over its own matrices."""
    test = fits[0].test_matrix
    actual_test = actual.slice_range(test.start, test.end)
    if len(actual_test) < 2:
        raise ValueError("need at least two points to derive signals")
    predicted = np.array([fit.test_pred.values for fit in fits])
    moves = np.diff(actual_test.values)
    rows = indicator_rows(actual_test.values, moves, predicted, signal_rows(predicted))
    return [
        replace(row, train_error_pct=error_percent(fit.train_pred, fit.train_matrix),
                test_error_pct=error_percent(fit.test_pred, fit.test_matrix))
        for row, fit in zip(rows, fits)
    ]


def _fitted(expert: TrainedExpert, m_train: FeatureMatrix, m_test: FeatureMatrix) -> ExpertFit:
    return ExpertFit(expert, m_train, m_test, predict(expert, m_train), predict(expert, m_test))


def sub_failed(number: int, sub: SubNetworkSpec, exc: Exception) -> ValueError:
    """The error naming sub `number` (1-based, in spec order) and its fault."""
    return ValueError(f"sub-network {number} ({sub.name!r}) failed: {exc}")


def assemble_subs(
    subs: Sequence[SubNetworkSpec],
    sources: Mapping[str, TimeSeries],
    target_name: str,
    *ranges: Tuple[MonthStamp, MonthStamp],
) -> List[Tuple[FeatureMatrix, ...]]:
    """Each sub's feature matrix over each range, one tuple per sub. A
    warm-up shortfall or missing series is raised by sub_failed, naming the
    first failing sub."""
    matrices = []
    for number, sub in enumerate(subs, start=1):
        try:
            matrices.append(
                tuple(assemble(sub.features, sources, target_name, None, *r) for r in ranges)
            )
        except ValueError as exc:
            raise sub_failed(number, sub, exc) from exc
    return matrices


def fit_subs(
    subs: Sequence[SubNetworkSpec],
    sources: Mapping[str, TimeSeries],
    target_name: str,
    train_range: Tuple[MonthStamp, MonthStamp],
    test_range: Tuple[MonthStamp, MonthStamp],
    selected: Sequence[TrainedExpert | None] | None = None,
) -> List[ExpertFit]:
    """Assemble every sub's train and test matrices, train the subs, and
    predict both ranges; one fit per sub, in spec order.

    The subs to train go to train_many in one call, which batches them. A
    sub with an expert in `selected` (one entry per sub, None where the sub
    is to be trained) keeps it: that expert must come from the sub's own init
    and config on this train range, as the restart winner does. A warm-up
    shortfall, missing series or diverged net is raised as a ValueError
    naming the first failing sub (1-based, in spec order); every sub is
    assembled before any trains, so an assembly fault is named first."""
    experts: List[TrainedExpert | TrainingDiverged | None] = list(selected or [None] * len(subs))
    matrices = assemble_subs(subs, sources, target_name, train_range, test_range)
    todo = [i for i, expert in enumerate(experts) if expert is None]
    if todo:
        trained = train_many(
            [init(subs[i].shape(), subs[i].train_config) for i in todo],
            [matrices[i][0] for i in todo],
            [subs[i].train_config for i in todo],
        )
        for i, result in zip(todo, trained):
            experts[i] = result
    fits = []
    for i, (sub, expert) in enumerate(zip(subs, experts)):
        if isinstance(expert, TrainingDiverged):
            raise sub_failed(i + 1, sub, expert) from expert
        fits.append(_fitted(replace(expert, test_range=test_range), *matrices[i]))
    return fits


def train_ensemble(
    spec: EnsembleSpec,
    sources: Mapping[str, TimeSeries],
    target_name: str,
    train_range: Tuple[MonthStamp, MonthStamp],
    test_range: Tuple[MonthStamp, MonthStamp],
    selected: Sequence[TrainedExpert | None] | None = None,
) -> EnsembleModel:
    """Train every sub-network on the training range, stack their predictions
    under the master, and report all experts over the testing range.

    Each sub trains with exactly its own config (builders hand out distinct
    seeds), or keeps its expert from `selected` (see fit_subs); the report
    rows come out in spec order with the master last."""
    if not (train_range[0] <= train_range[1] < test_range[0] <= test_range[1]):
        raise ValueError("train and test ranges must be disjoint and ordered")
    if target_name not in sources:
        raise ValueError(f"unknown target series {target_name!r}")
    names = [s.name for s in spec.sub_specs]
    fits = fit_subs(spec.sub_specs, sources, target_name, train_range, test_range, selected)
    test_preds = [fit.test_pred for fit in fits]
    master_train = _master_matrix([fit.train_pred for fit in fits], names, fits[0].train_matrix)
    master_test = _master_matrix(test_preds, names, fits[0].test_matrix)
    cfg = spec.master_train_config
    try:
        master = train(init(spec.master_shape(), cfg), master_train, cfg)
    except TrainingDiverged as exc:
        raise ValueError(f"master network failed: {exc}") from exc
    master_fit = _fitted(replace(master, test_range=test_range), master_train, master_test)

    rows = zip([*names, MASTER_NAME], report_rows([*fits, master_fit], sources[target_name]))
    return EnsembleModel(
        sub_experts=tuple(fit.expert for fit in fits),
        sub_names=tuple(names),
        master=master_fit.expert,
        reports=tuple(rows),
        target_name=target_name,
        train_range=train_range,
        test_range=test_range,
        test_predictions=(tuple(test_preds), master_fit.test_pred),
    )


# ---------------------------------------------------------------------------
# Directory serialization
# ---------------------------------------------------------------------------


def model_files(model: EnsembleModel) -> Dict[str, str]:
    """The model directory's files by name: one JSON per expert and a manifest
    with the ranges and report rows."""
    experts = zip([*model.sub_names, "master"], [*model.sub_experts, model.master])
    files = {f"{name}.json": json_text(expert_to_dict(expert)) for name, expert in experts}
    files["manifest.json"] = json_text({
        "schema_version": MODEL_SCHEMA_VERSION,
        "target": model.target_name,
        "train_range": range_to_json(model.train_range),
        "test_range": range_to_json(model.test_range),
        "sub_networks": list(model.sub_names),
        "seeds": [expert.rng_seed for expert in model.sub_experts] + [model.master.rng_seed],
        "reports": [[name, asdict(rep)] for name, rep in model.reports],
    })
    return files


def load_ensemble(directory: str) -> EnsembleModel:
    path = os.path.join(directory, "manifest.json")
    manifest = JsonObject(read_json(path), path)
    version = manifest.get("schema_version", None, (int,))
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema_version {version!r} in {directory}")
    names = manifest.get(
        "sub_networks", REQUIRED, (list,), lambda v: len(v) > 0 and all(map(is_sub_name, v)),
        f"a non-empty list, each {SUB_NAME_WANT}",
    )
    seeds = manifest.get("seeds", REQUIRED, (list,))
    reports = manifest.get(
        "reports", REQUIRED, (list,),
        lambda v: all(type(r) is list and len(r) == 2 for r in v)
        and [r[0] for r in v] == [*names, MASTER_NAME],
        f"a list of [name, report] pairs, named as the sub_networks and then {MASTER_NAME!r}",
    )
    target_name = manifest.get("target", REQUIRED, (str,))
    train_range = read_range(manifest, "train_range")
    test_range = read_range(manifest, "test_range")
    manifest.close()
    subs = tuple(load_expert(os.path.join(directory, f"{name}.json")) for name in names)
    master = load_expert(os.path.join(directory, "master.json"))
    if master.features != tuple(FeatureSpec(name) for name in names):
        raise ValueError(f"{path}.sub_networks are not the inputs of the saved master, in order")
    if list(seeds) != [expert.rng_seed for expert in (*subs, master)]:
        raise ValueError(f"{path}.seeds do not match the rng_seed of the saved experts")
    rows = tuple(
        (name, JsonObject(rep, f"{path}.reports[{i}]").build(MetricsReport))
        for i, (name, rep) in enumerate(reports)
    )
    return EnsembleModel(
        sub_experts=subs,
        sub_names=names,
        master=master,
        reports=rows,
        target_name=target_name,
        train_range=train_range,
        test_range=test_range,
    )
