"""Stacked master network over the eight sub-networks.

Each sub-network trains on its own feature matrix; the master trains on the
sub predictions over the training range only, so nothing from the test range
leaks into any trained parameter.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace
from typing import Mapping, Sequence, Tuple

import numpy as np

from .artifacts import read_json, write_json
from .metrics import MetricsReport, report
from .mlp import (
    TrainConfig,
    TrainedExpert,
    TrainingDiverged,
    init,
    load_expert,
    predict,
    save_expert,
    train,
)
from .preprocess import FeatureMatrix, FeatureSpec, assemble
from .timeseries import MonthStamp, TimeSeries, range_from_json, range_to_json

__all__ = [
    "SubNetworkSpec",
    "EnsembleSpec",
    "EnsembleModel",
    "fit_sub",
    "train_ensemble",
    "predict_ensemble",
    "save_ensemble",
    "load_ensemble",
    "MASTER_NAME",
]

MASTER_NAME = "Master Network"
MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SubNetworkSpec:
    """One sub-network: its features, hidden shape, and training knobs."""

    name: str
    features: Tuple[FeatureSpec, ...]
    hidden_layers: Tuple[int, ...]
    train_config: TrainConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", tuple(self.features))
        hidden = tuple(int(n) for n in self.hidden_layers)
        if not hidden or min(hidden) < 1:
            raise ValueError("at least one hidden layer of size >= 1 required")
        object.__setattr__(self, "hidden_layers", hidden)

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
        hidden = tuple(int(n) for n in self.master_hidden_layers)
        if not hidden or min(hidden) < 1:
            raise ValueError("master needs at least one hidden layer of size >= 1")
        object.__setattr__(self, "master_hidden_layers", hidden)

    def master_shape(self) -> Tuple[int, ...]:
        return (len(self.sub_specs), *self.master_hidden_layers, 1)


@dataclass(frozen=True)
class EnsembleModel:
    """Trained sub-experts, the master, and the per-expert indicator rows."""

    sub_experts: Tuple[TrainedExpert, ...]
    sub_names: Tuple[str, ...]
    master: TrainedExpert
    reports: Tuple[Tuple[str, MetricsReport], ...]
    target_name: str
    train_range: Tuple[MonthStamp, MonthStamp]
    test_range: Tuple[MonthStamp, MonthStamp]


def _master_matrix(
    predictions: Sequence[TimeSeries],
    names: Sequence[str],
    target: TimeSeries,
    first: MonthStamp,
    last: MonthStamp,
    target_name: str,
) -> FeatureMatrix:
    columns = [p.slice_range(first, last).values for p in predictions]
    return FeatureMatrix(
        X=np.column_stack(columns),
        y=target.slice_range(first, last).values,
        start=first,
        specs=tuple(FeatureSpec(name) for name in names),
        target_name=target_name,
    )


def fit_sub(
    sub: SubNetworkSpec,
    number: int,
    sources: Mapping[str, TimeSeries],
    target_name: str,
    train_range: Tuple[MonthStamp, MonthStamp],
    test_range: Tuple[MonthStamp, MonthStamp],
) -> Tuple[TrainedExpert, FeatureMatrix, FeatureMatrix]:
    """Assemble one sub's train and test matrices and train its expert; returns
    (expert, train matrix, test matrix). A warm-up shortfall, missing series or
    diverged net is raised as a ValueError naming the sub (1-based `number`)."""
    try:
        m_train = assemble(sub.features, sources, target_name, None, *train_range)
        m_test = assemble(sub.features, sources, target_name, None, *test_range)
        expert = train(init(sub.shape(), sub.train_config), m_train, sub.train_config)
    except (ValueError, TrainingDiverged) as exc:
        raise ValueError(f"sub-network {number} ({sub.name!r}) failed: {exc}") from exc
    return replace(expert, test_range=test_range), m_train, m_test


def train_ensemble(
    spec: EnsembleSpec,
    sources: Mapping[str, TimeSeries],
    target_name: str,
    train_range: Tuple[MonthStamp, MonthStamp],
    test_range: Tuple[MonthStamp, MonthStamp],
) -> EnsembleModel:
    """Train every sub-network on the training range, stack their predictions
    under the master, and report all experts over the testing range.

    Each sub trains with exactly its own config (builders hand out distinct
    seeds); the report rows come out in spec order with the master last."""
    if not (train_range[0] <= train_range[1] < test_range[0] <= test_range[1]):
        raise ValueError("train and test ranges must be disjoint and ordered")
    if target_name not in sources:
        raise ValueError(f"unknown target series {target_name!r}")
    target = sources[target_name]
    names = [s.name for s in spec.sub_specs]
    fits = [
        fit_sub(sub, number, sources, target_name, train_range, test_range)
        for number, sub in enumerate(spec.sub_specs, start=1)
    ]
    train_preds = [predict(expert, m_train) for expert, m_train, _ in fits]
    test_preds = [predict(expert, m_test) for expert, _, m_test in fits]
    master_train = _master_matrix(train_preds, names, target, *train_range, target_name)
    master_test = _master_matrix(test_preds, names, target, *test_range, target_name)
    cfg = spec.master_train_config
    try:
        master = train(init(spec.master_shape(), cfg), master_train, cfg)
    except TrainingDiverged as exc:
        raise ValueError(f"master network failed: {exc}") from exc
    master = replace(master, test_range=test_range)

    rows = [(name, report(*fit, target)) for name, fit in zip(names, fits)]
    rows.append((MASTER_NAME, report(master, master_train, master_test, target)))
    return EnsembleModel(
        sub_experts=tuple(expert for expert, _, _ in fits),
        sub_names=tuple(names),
        master=master,
        reports=tuple(rows),
        target_name=target_name,
        train_range=train_range,
        test_range=test_range,
    )


def predict_ensemble(
    model: EnsembleModel,
    sources: Mapping[str, TimeSeries],
    first: MonthStamp,
    last: MonthStamp,
) -> TimeSeries:
    """Sub predictions over [first, last], then the master forward pass."""
    target = sources[model.target_name]
    preds = []
    for expert in model.sub_experts:
        matrix = assemble(list(expert.features), sources, model.target_name, None, first, last)
        preds.append(predict(expert, matrix))
    master_matrix = _master_matrix(preds, model.sub_names, target, first, last, model.target_name)
    return predict(model.master, master_matrix)


# ---------------------------------------------------------------------------
# Directory serialization
# ---------------------------------------------------------------------------


def save_ensemble(model: EnsembleModel, directory: str) -> None:
    """One JSON per expert, then a manifest with ranges and report rows. The
    manifest goes last: a save into a fresh directory that fails part-way
    leaves nothing that load_ensemble accepts."""
    for name, expert in zip(model.sub_names, model.sub_experts):
        save_expert(expert, os.path.join(directory, f"{name}.json"))
    save_expert(model.master, os.path.join(directory, "master.json"))
    manifest = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "target": model.target_name,
        "train_range": range_to_json(model.train_range),
        "test_range": range_to_json(model.test_range),
        "sub_networks": list(model.sub_names),
        "seeds": [expert.rng_seed for expert in model.sub_experts] + [model.master.rng_seed],
        "reports": [[name, asdict(rep)] for name, rep in model.reports],
    }
    write_json(os.path.join(directory, "manifest.json"), manifest)


def load_ensemble(directory: str) -> EnsembleModel:
    manifest = read_json(os.path.join(directory, "manifest.json"))
    version = manifest.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema_version {version!r} in {directory}")
    names = tuple(manifest["sub_networks"])
    subs = [load_expert(os.path.join(directory, f"{name}.json")) for name in names]
    master = load_expert(os.path.join(directory, "master.json"))
    rows = tuple(
        (name, MetricsReport(**rep)) for name, rep in manifest["reports"]
    )
    return EnsembleModel(
        sub_experts=tuple(subs),
        sub_names=names,
        master=master,
        reports=rows,
        target_name=manifest["target"],
        train_range=range_from_json(manifest["train_range"]),
        test_range=range_from_json(manifest["test_range"]),
    )
