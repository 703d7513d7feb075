"""Architecture search and Sharpe-maximizing restarts.

Both loops are deterministic: candidate seeds derive from a stable hash of the
shape, restart seeds count up from a base seed, and every evaluation lands in
the returned log.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from .artifacts import sizes
from .metrics import efficiency, sharpe_modified, signals_from_prediction, srm_rank_key
from .mlp import (
    TrainConfig,
    TrainedExpert,
    TrainingDiverged,
    error_percent,
    init,
    predict,
    train,
    train_many,
)
from .preprocess import FeatureMatrix

__all__ = [
    "ArchitectureGrid",
    "CandidateResult",
    "SearchOutcome",
    "RestartResult",
    "RestartOutcome",
    "candidate_seed",
    "search_best_net",
    "maximize_sharpe",
    "search_log_csv",
    "restart_log_csv",
]

# Two combined scores within this many percentage points count as a tie, which
# the smaller network wins. Differences below this are inside the sampling
# noise of the desk-scale evaluation windows (~50-100 rows).
SCORE_TIE_TOLERANCE = 1.5


@dataclass(frozen=True)
class ArchitectureGrid:
    """Candidate hidden shapes: every layer count crossed with every width."""

    hidden_layer_counts: Tuple[int, ...] = (1, 2)
    nodes_per_layer_candidates: Tuple[int, ...] = (2, 4, 8, 16)
    train_config: TrainConfig = TrainConfig()

    def __post_init__(self) -> None:
        for name in ("hidden_layer_counts", "nodes_per_layer_candidates"):
            object.__setattr__(self, name, sizes(name, getattr(self, name)))

    def shapes(self, n_in: int, n_out: int = 1) -> List[Tuple[int, ...]]:
        out = []
        for count in self.hidden_layer_counts:
            for nodes in self.nodes_per_layer_candidates:
                out.append(tuple([n_in] + [nodes] * count + [n_out]))
        return out


@dataclass(frozen=True)
class CandidateResult:
    shape: Tuple[int, ...]
    seed: int
    train_error_pct: float
    validation_error_pct: float
    combined: float
    parameters: int
    diverged: bool = False


@dataclass(frozen=True)
class SearchOutcome:
    best_architecture: Tuple[int, ...]
    log: Tuple[CandidateResult, ...]


def candidate_seed(shape: Sequence[int], base_seed: int) -> int:
    """Stable per-candidate seed derived from the shape and a base seed."""
    text = f"{tuple(int(n) for n in shape)}|{base_seed}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def _parameters(shape: Sequence[int]) -> int:
    return sum(shape[i + 1] * shape[i] + shape[i + 1] for i in range(len(shape) - 1))


def search_best_net(
    grid: ArchitectureGrid,
    train_matrix: FeatureMatrix,
    validation_matrix: FeatureMatrix,
) -> SearchOutcome:
    """Train one expert per candidate shape and keep the shape minimizing
    max(train error %, validation error %). Near-ties (within
    SCORE_TIE_TOLERANCE points) go to the smaller network. Divergent
    candidates score worst but are not fatal."""
    log: List[CandidateResult] = []
    best: CandidateResult | None = None
    for shape in grid.shapes(train_matrix.width):
        seed = candidate_seed(shape, grid.train_config.rng_seed)
        cfg = replace(grid.train_config, rng_seed=seed)
        try:
            expert = train(init(shape, cfg), train_matrix, cfg)
            train_err = error_percent(predict(expert, train_matrix), train_matrix)
            val_err = error_percent(predict(expert, validation_matrix), validation_matrix)
            diverged = False
        except TrainingDiverged:
            train_err = val_err = float("inf")
            diverged = True
        result = CandidateResult(
            shape=shape,
            seed=seed,
            train_error_pct=train_err,
            validation_error_pct=val_err,
            combined=max(train_err, val_err),
            parameters=_parameters(shape),
            diverged=diverged,
        )
        log.append(result)
        if best is None:
            best = result
        elif result.combined < best.combined - SCORE_TIE_TOLERANCE:
            best = result
        elif (
            abs(result.combined - best.combined) <= SCORE_TIE_TOLERANCE
            and result.parameters < best.parameters
        ):
            best = result
    assert best is not None
    return SearchOutcome(best_architecture=best.shape, log=tuple(log))


@dataclass(frozen=True)
class RestartResult:
    restart: int
    seed: int
    srm: float | None
    efficiency_pct: float
    train_error_pct: float
    diverged: bool = False


@dataclass(frozen=True)
class RestartOutcome:
    expert: TrainedExpert
    best_restart: int
    history: Tuple[RestartResult, ...]
    reached_target: bool


def maximize_sharpe(
    shape: Sequence[int],
    train_matrix: FeatureMatrix,
    validation_matrix: FeatureMatrix,
    train_config: TrainConfig,
    target_srm: float | None = None,
    max_restarts: int = 20,
    base_seed: int | None = None,
) -> RestartOutcome:
    """Train from fresh random weights (seeds base_seed + i) and keep the
    expert with the best validation Sharpe ratio. All restarts train in one
    lockstep batch; they are then scored in seed order, and scoring stops
    once target_srm is reached, so the history ends there. A no-loss outcome
    satisfies any target. Raises TrainingDiverged if every restart diverges."""
    if max_restarts < 1:
        raise ValueError("max_restarts must be >= 1")
    if base_seed is None:
        base_seed = train_config.rng_seed
    configs = [replace(train_config, rng_seed=base_seed + i) for i in range(max_restarts)]
    nets = [init(tuple(shape), cfg) for cfg in configs]
    trained = train_many(nets, [train_matrix] * max_restarts, configs)
    actual = validation_matrix.target_series()
    history: List[RestartResult] = []
    best: TrainedExpert | None = None
    best_key = None
    best_index = -1
    reached = False
    for i, (cfg, expert) in enumerate(zip(configs, trained)):
        diverged = isinstance(expert, TrainingDiverged)
        if diverged:
            srm = eff = float("-inf")
            train_err = float("inf")
        else:
            predicted = predict(expert, validation_matrix)
            signals = signals_from_prediction(predicted)
            srm = sharpe_modified(actual, signals)
            eff = efficiency(actual, signals)
            train_err = expert.final_train_error
        history.append(
            RestartResult(
                restart=i,
                seed=cfg.rng_seed,
                srm=srm,
                efficiency_pct=eff,
                train_error_pct=train_err,
                diverged=diverged,
            )
        )
        if diverged:
            continue
        key = srm_rank_key(srm, eff)
        if best_key is None or key > best_key:
            best, best_key, best_index = expert, key, i
        if target_srm is not None and (srm is None or srm >= target_srm):
            reached = True
            break
    if best is None:
        last = max(exc.epoch for exc in trained)
        message = f"all {max_restarts} restarts diverged, the last at epoch {last}"
        raise TrainingDiverged(last, f"{message} (non-finite loss)")
    return RestartOutcome(
        expert=best, best_restart=best_index, history=tuple(history), reached_target=reached
    )


def search_log_csv(outcome: SearchOutcome) -> str:
    """Candidate log as CSV. The wallclock column stays empty, so repeated
    runs are byte-identical."""
    lines = ["candidate,seed,train_err,val_err,srm,wallclock"]
    for r in outcome.log:
        shape = "x".join(str(n) for n in r.shape)
        lines.append(
            f"{shape},{r.seed},{r.train_error_pct:.6g},{r.validation_error_pct:.6g},,"
        )
    return "\n".join(lines) + "\n"


def restart_log_csv(outcome: RestartOutcome) -> str:
    lines = ["candidate,seed,train_err,val_err,srm,wallclock"]
    for r in outcome.history:
        srm = "no-loss" if r.srm is None else f"{r.srm:.6g}"
        lines.append(f"restart{r.restart},{r.seed},{r.train_error_pct:.6g},,{srm},")
    return "\n".join(lines) + "\n"
