"""Architecture search and Sharpe-maximizing restarts.

Both loops are deterministic: candidate seeds derive from a stable hash of the
shape, restart seeds count up from a base seed, and every evaluation lands in
the returned log. Each loop trains every (train, validation) pair at once, in
one mlp.train_many call, and reads divergence from its slots.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, replace
from functools import reduce
from typing import List, Sequence, Tuple

from .artifacts import is_number, sizes
from .metrics import efficiency, sharpe_modified, signals_from_prediction, srm_rank_key
from .mlp import (
    TrainConfig,
    TrainedExpert,
    TrainingDiverged,
    error_percent,
    init,
    predict,
    train,  # noqa: F401 -- unused, but perfbench/selftest.py checks tracing rebinds it here
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
    "search_best_nets",
    "maximize_sharpes",
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

    def __post_init__(self) -> None:
        for name in ("hidden_layer_counts", "nodes_per_layer_candidates"):
            object.__setattr__(self, name, sizes(name, getattr(self, name)))

    def shapes(self, n_in: int) -> List[Tuple[int, ...]]:
        """Every (n_in, *hidden, 1) shape, layer counts outermost."""
        return [(n_in, *[nodes] * count, 1)
                for count in self.hidden_layer_counts for nodes in self.nodes_per_layer_candidates]


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


def _better(best: CandidateResult, result: CandidateResult) -> CandidateResult:
    """`result` if it scores lower by more than the tie band, or ties with fewer parameters."""
    if result.combined < best.combined - SCORE_TIE_TOLERANCE:
        return result
    tie = abs(result.combined - best.combined) <= SCORE_TIE_TOLERANCE
    return result if tie and result.parameters < best.parameters else best


def search_best_nets(
    grid: ArchitectureGrid,
    matrices: Sequence[Tuple[FeatureMatrix, FeatureMatrix]],
    configs: Sequence[TrainConfig],
) -> List[SearchOutcome]:
    """For each (train, validation) pair, train one expert per candidate shape
    with the pair's config and keep the shape minimizing max(train error %,
    validation error %). Near-ties (within SCORE_TIE_TOLERANCE points) go to
    the smaller network. Divergent candidates score worst but are not fatal.
    Every candidate of every pair trains in one train_many call; the pairs
    are then scored in order, giving one outcome per pair."""
    plan = [
        (i, shape, replace(config, rng_seed=candidate_seed(shape, config.rng_seed)))
        for i, ((train_matrix, _), config) in enumerate(zip(matrices, configs, strict=True))
        for shape in grid.shapes(train_matrix.width)
    ]
    trained = train_many(
        [init(shape, cfg) for _, shape, cfg in plan],
        [matrices[i][0] for i, _, _ in plan],
        [cfg for _, _, cfg in plan],
    )
    logs: List[List[CandidateResult]] = [[] for _ in matrices]
    for (i, shape, cfg), expert in zip(plan, trained):
        diverged = isinstance(expert, TrainingDiverged)
        if diverged:
            train_err = val_err = float("inf")
        else:
            train_err, val_err = (error_percent(predict(expert, m), m) for m in matrices[i])
        scores = (train_err, val_err, max(train_err, val_err))
        logs[i].append(CandidateResult(shape, cfg.rng_seed, *scores, _parameters(shape), diverged))
    return [SearchOutcome(reduce(_better, log).shape, tuple(log)) for log in logs]


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


def maximize_sharpes(
    shapes: Sequence[Sequence[int]],
    matrices: Sequence[Tuple[FeatureMatrix, FeatureMatrix]],
    configs: Sequence[TrainConfig],
    target_srm: float | None = None,
    max_restarts: int = 20,
) -> List[RestartOutcome | TrainingDiverged | ValueError]:
    """For each (train, validation) pair, train its shape from fresh random
    weights (seeds config.rng_seed + i) and keep the expert with the best
    validation Sharpe ratio. Every restart of every pair trains in one
    train_many call, then each pair's are scored in seed order until one
    reaches target_srm (a no-loss outcome reaches any). One slot per pair: its
    RestartOutcome, TrainingDiverged if every restart diverged, or the
    ValueError of a validation target that cannot be scored."""
    if not is_number(max_restarts, numbers.Integral) or max_restarts < 1:
        raise ValueError(f"max_restarts must be an integer >= 1, got {max_restarts!r}")
    seeded = [[replace(c, rng_seed=c.rng_seed + i) for i in range(max_restarts)] for c in configs]
    trained = train_many(
        [init(tuple(shape), c) for shape, cfgs in zip(shapes, seeded, strict=True) for c in cfgs],
        [pair[0] for pair, cfgs in zip(matrices, seeded, strict=True) for _ in cfgs],
        [cfg for cfgs in seeded for cfg in cfgs],
    )
    results = iter(trained)
    return [
        _best_restart(pair[1], [(cfg, next(results)) for cfg in cfgs], target_srm)
        for pair, cfgs in zip(matrices, seeded)
    ]


def _best_restart(
    validation_matrix: FeatureMatrix,
    restarts: Sequence[Tuple[TrainConfig, TrainedExpert | TrainingDiverged]],
    target_srm: float | None,
) -> RestartOutcome | TrainingDiverged | ValueError:
    """One pair's slot of maximize_sharpes: its restarts scored in seed order."""
    actual = validation_matrix.target_series()
    history, reached = [], False
    try:
        for i, (cfg, expert) in enumerate(restarts):
            if isinstance(expert, TrainingDiverged):
                history.append(RestartResult(i, cfg.rng_seed, -math.inf, -math.inf, math.inf, True))
                continue
            signals = signals_from_prediction(predict(expert, validation_matrix))
            srm = sharpe_modified(actual, signals)
            eff = efficiency(actual, signals)
            history.append(RestartResult(i, cfg.rng_seed, srm, eff, expert.final_train_error))
            if target_srm is not None and (srm is None or srm >= target_srm):
                reached = True
                break
    except ValueError as exc:
        return exc
    scored = [r for r in history if not r.diverged]
    if not scored:
        last = max(exc.epoch for _, exc in restarts)
        message = f"all {len(restarts)} restarts diverged, the last at epoch {last}"
        return TrainingDiverged(last, f"{message} (non-finite loss)")
    best = max(scored, key=lambda r: srm_rank_key(r.srm, r.efficiency_pct)).restart
    return RestartOutcome(restarts[best][1], best, tuple(history), reached)


def maximize_sharpe(
    shape: Sequence[int],
    train_matrix: FeatureMatrix,
    validation_matrix: FeatureMatrix,
    train_config: TrainConfig,
    target_srm: float | None = None,
    max_restarts: int = 20,
    base_seed: int | None = None,
) -> RestartOutcome:
    """maximize_sharpes on one pair, seeds counting up from base_seed (default
    train_config.rng_seed); raises the pair's TrainingDiverged or ValueError."""
    config = train_config if base_seed is None else replace(train_config, rng_seed=base_seed)
    (outcome,) = maximize_sharpes(
        [shape], [(train_matrix, validation_matrix)], [config], target_srm, max_restarts
    )
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def search_log_csv(outcome: SearchOutcome) -> str:
    """Candidate log as CSV. The wallclock column stays empty, so repeated
    runs are byte-identical."""
    lines = ["candidate,seed,train_err,val_err,srm,wallclock"]
    for r in outcome.log:
        shape = "x".join(str(n) for n in r.shape)
        lines.append(f"{shape},{r.seed},{r.train_error_pct:.6g},{r.validation_error_pct:.6g},,")
    return "\n".join(lines) + "\n"


def restart_log_csv(outcome: RestartOutcome) -> str:
    lines = ["candidate,seed,train_err,val_err,srm,wallclock"]
    for r in outcome.history:
        srm = "no-loss" if r.srm is None else f"{r.srm:.6g}"
        lines.append(f"restart{r.restart},{r.seed},{r.train_error_pct:.6g},,{srm},")
    return "\n".join(lines) + "\n"
