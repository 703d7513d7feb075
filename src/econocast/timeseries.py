"""Monthly time series: calendar stamps, CSV round-trip, fixed-weight index math,
and a seeded synthetic-economy generator. Every monthly-row CSV the package
writes (`render_csv` here, the equity curves of `metrics`) is one `%` format of
a `month_rows` template.

Every series is a contiguous run of finite monthly values anchored at a start
month. All containers are immutable after construction and safe to share
between concurrent tasks.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .artifacts import REQUIRED, JsonObject, is_number

__all__ = [
    "CsvFormatError",
    "NonFiniteError",
    "MonthStamp",
    "TimeSeries",
    "SectorWeights",
    "DEFAULT_SECTOR_WEIGHTS",
    "SYNTH_START",
    "TARGET_NAME",
    "SECTOR_NAMES",
    "PREDICTOR_LEADS",
    "SyntheticBundle",
    "range_to_json",
    "range_from_json",
    "read_range",
    "month_labels",
    "month_rows",
    "parse_csv",
    "render_csv",
    "laspeyres_index",
    "synthesize_economy",
]

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$", re.ASCII)
# The whitespace that float() strips from an ASCII cell, and all that the CSV
# dialect allows around a cell; str.strip() would also take "\x1c".."\x1f" and Unicode spaces.
_SPACE = " \t\n\r\x0b\x0c"


class NonFiniteError(ValueError):
    """A series given values that are not all finite."""


class CsvFormatError(ValueError):
    """Malformed CSV input. Carries the offending 1-based row (header = row 1)
    and, when applicable, the column name."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


@dataclass(frozen=True, order=True)
class MonthStamp:
    """A calendar month. Ordering is lexicographic on (year, month)."""

    year: int
    month: int

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise ValueError(f"month must be in 1..12, got {self.month}")

    @classmethod
    def parse(cls, text: str) -> "MonthStamp":
        m = _MONTH_RE.match(text.strip(_SPACE))
        if m is None:
            raise ValueError(f"malformed month {text!r}, expected YYYY-MM")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"

    def plus(self, months: int) -> "MonthStamp":
        total = self.year * 12 + (self.month - 1) + months
        return MonthStamp(total // 12, total % 12 + 1)

    def months_since(self, other: "MonthStamp") -> int:
        """Signed number of months from `other` to self."""
        return (self.year - other.year) * 12 + (self.month - other.month)


def month_labels(start: MonthStamp, n: int) -> List[str]:
    """str() of the n months from start on, without a MonthStamp per month."""
    first = start.year * 12 + start.month - 1
    months = [f"-{m:02d}" for m in range(1, 13)]
    years = range(first // 12, (first + n - 1) // 12 + 1)
    return [f"{y:04d}" + m for y in years for m in months][first % 12 : first % 12 + n]


@functools.lru_cache(maxsize=8)
def month_rows(start: MonthStamp, n: int, cells: str) -> str:
    """The `%` template of the n monthly rows from start: each row is its month
    label, then `cells`, then a newline. Cached for the curves of a scan, which
    share one range and one `cells`; `__wrapped__` builds one without caching."""
    return "".join([label + cells + "\n" for label in month_labels(start, n)])


def range_to_json(months: Tuple[MonthStamp, MonthStamp]) -> List[str]:
    """(first, last) as the ["YYYY-MM", "YYYY-MM"] pair used in JSON files."""
    return [str(months[0]), str(months[1])]


def range_from_json(pair: Sequence[str]) -> Tuple[MonthStamp, MonthStamp]:
    """Inverse of range_to_json."""
    return MonthStamp.parse(pair[0]), MonthStamp.parse(pair[1])


def read_range(obj: JsonObject, key: str, default=REQUIRED) -> Tuple[MonthStamp, MonthStamp]:
    """The ordered month range at `key` of a JSON object, as range_to_json
    writes it, or `default` (see JsonObject.get)."""
    want = "an ordered [first, last] pair of YYYY-MM months"
    pair = obj.get(key, default, (list,), _is_ordered_range, want)
    return None if pair is None else range_from_json(pair)


def _is_ordered_range(pair: Sequence[object]) -> bool:
    if len(pair) != 2 or any(type(s) is not str for s in pair):
        return False
    try:
        first, last = range_from_json(pair)
    except ValueError:
        return False
    return first <= last


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Contiguous monthly observations; values[i] belongs to start.plus(i)."""

    start: MonthStamp
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("series must be a non-empty one-dimensional sequence")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("series values must all be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self.start == other.start and np.array_equal(self.values, other.values)

    @property
    def end(self) -> MonthStamp:
        return self.start.plus(len(self) - 1)

    def index_of(self, stamp: MonthStamp) -> int:
        i = stamp.months_since(self.start)
        if not 0 <= i < len(self):
            raise KeyError(f"{stamp} outside series range {self.start}..{self.end}")
        return i

    def covers(self, first: MonthStamp, last: MonthStamp) -> bool:
        return self.start <= first and last <= self.end

    def slice_range(self, first: MonthStamp, last: MonthStamp) -> "TimeSeries":
        if first > last:
            raise ValueError(f"empty range {first}..{last}")
        i, j = self.index_of(first), self.index_of(last)
        return TimeSeries(first, self.values[i : j + 1])

    def aligned_with(self, other: "TimeSeries") -> bool:
        return self.start == other.start and len(self) == len(other)


@dataclass(frozen=True)
class SectorWeights:
    """Positive fixed weights per sector, in percentage points of the base year."""

    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        frozen = dict(self.weights)
        for name, w in frozen.items():
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"weight for {name!r} must be finite and > 0, got {w}")
        object.__setattr__(self, "weights", MappingProxyType(frozen))

    def total(self) -> float:
        return math.fsum(self.weights.values())

    def sectors(self) -> List[str]:
        return list(self.weights)


# Productive-sector weights of the activity index, percentage points of the
# base-year aggregate (they deliberately cover 80% of it, not 100%).
DEFAULT_SECTOR_WEIGHTS = SectorWeights(
    {
        "oil": 20.9,
        "mining": 0.8,
        "manufacturing": 10.5,
        "water_power": 1.5,
        "construction": 5.2,
        "commerce": 11.7,
        "finance_insurance": 2.3,
        "real_estate": 6.8,
        "professional_services": 3.3,
        "communal_services": 9.6,
        "import_rights": 7.4,
    }
)

SECTOR_NAMES = DEFAULT_SECTOR_WEIGHTS.sectors()


def parse_csv(text: str) -> Dict[str, TimeSeries]:
    """Parse `date,<name>,...` monthly CSV into one series per named column.

    Months must be strictly increasing and contiguous; empty or non-numeric
    cells are errors (no imputation); only ASCII whitespace is stripped from
    a cell or makes a line blank. Raises CsvFormatError with the 1-based row
    number (header = row 1) and column name where applicable.
    """
    lines = [ln for ln in text.splitlines() if ln.strip(_SPACE) != ""]
    if not lines:
        raise CsvFormatError("empty input", row=1)
    header = [h.strip(_SPACE) for h in lines[0].split(",")]
    if not header or header[0] != "date":
        raise CsvFormatError("header must start with 'date'", row=1, column=header[0] if header else None)
    names = header[1:]
    if not names:
        raise CsvFormatError("no data columns in header", row=1)
    for i, name in enumerate(names):
        if name == "":
            raise CsvFormatError("empty column name in header", row=1)
        if name in names[:i]:
            raise CsvFormatError(f"duplicate column name {name!r}", row=1, column=name)

    if len(lines) < 2:
        raise CsvFormatError("no data rows", row=2)
    bulk = _parse_clean_rows(lines[1:], len(header))
    if bulk is None:
        _raise_first_fault(lines[1:], header)
    start, values = bulk
    return {name: TimeSeries(start, values[:, c]) for c, name in enumerate(names)}


def _raise_first_fault(rows: List[str], header: List[str]) -> None:
    """Check the data rows a cell at a time and raise the CsvFormatError that
    names the first fault. Called on the rows _parse_clean_rows rejects: this
    check accepts no cell that it rejects, so it always finds one."""
    prev: MonthStamp | None = None
    for rownum, line in enumerate(rows, start=2):
        cells = [c.strip(_SPACE) for c in line.split(",")]
        if len(cells) != len(header):
            raise CsvFormatError(
                f"row {rownum} has {len(cells)} cells, expected {len(header)}", row=rownum
            )
        try:
            stamp = MonthStamp.parse(cells[0])
        except ValueError as exc:
            raise CsvFormatError(f"row {rownum}: {exc}", row=rownum, column="date") from exc
        if prev is not None and stamp != prev.plus(1):
            raise CsvFormatError(
                f"non-contiguous months at row {rownum}: {stamp} does not follow {prev}",
                row=rownum,
                column="date",
            )
        prev = stamp
        for name, cell in zip(header[1:], cells[1:]):
            if cell == "":
                raise CsvFormatError(f"empty cell at row {rownum}, column {name!r}", row=rownum, column=name)
            try:
                # float() also reads "1_0" and non-ASCII digits; the CSV dialect does not.
                if not cell.isascii() or "_" in cell:
                    raise ValueError(cell)
                value = float(cell)
            except ValueError as exc:
                raise CsvFormatError(
                    f"non-numeric cell {cell!r} at row {rownum}, column {name!r}",
                    row=rownum,
                    column=name,
                ) from exc
            if not math.isfinite(value):
                raise CsvFormatError(
                    f"non-finite value at row {rownum}, column {name!r}", row=rownum, column=name
                )


def _parse_clean_rows(lines: List[str], width: int) -> Tuple[MonthStamp, np.ndarray] | None:
    """The first month and the (rows, columns) values of well-formed data
    rows, checked and converted a block at a time; None for anything else,
    so that _raise_first_fault finds and names the fault. The values are read
    by float() after the same ASCII and "_" checks, one row's cells at a time."""
    if (
        not all(map(str.isascii, lines))
        or any(map(str.__contains__, lines, repeat("_")))
        or set(map(str.count, lines, repeat(","))) != {width - 1}
    ):
        return None
    first_cells, cells = zip(*(line.split(",", 1) for line in lines))
    dates = [date.strip(_SPACE) for date in first_cells]
    try:
        start = MonthStamp.parse(dates[0])
        MonthStamp.parse(dates[-1])  # every month has a four-digit year
        if dates != month_labels(start, len(dates)):
            return None
        values = np.fromiter(
            map(float, chain.from_iterable(row.split(",") for row in cells)),
            float,
            len(dates) * (width - 1),
        )
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return start, values.reshape(len(dates), width - 1)


def render_csv(series: Mapping[str, TimeSeries]) -> str:
    """Render aligned series to the parse_csv dialect with 6-significant-digit reals."""
    if not series:
        raise ValueError("nothing to render")
    items = list(series.items())
    first = items[0][1]
    for name, s in items:
        if not s.aligned_with(first):
            raise ValueError(f"series {name!r} is not aligned with the others")
    header = "date," + ",".join(name for name, _ in items) + "\n"
    k = len(items)
    values = [None] * (k * len(first))  # row-major, column c every k-th
    for c, (_, s) in enumerate(items):
        values[c::k] = s.values.tolist()
    # Uncached: a table is rendered once, and a cached template would outlive it.
    return header + month_rows.__wrapped__(first.start, len(first), ",%.6g" * k) % tuple(values)


def laspeyres_index(
    sector_relatives: Mapping[str, TimeSeries],
    weights: SectorWeights,
    base_value: float,
) -> TimeSeries:
    """Fixed-weight index: base_value * sum_a(w_a * rel_a) / sum_a(w_a).

    `sector_relatives` are quantity ratios against the base period, so an
    all-ones month yields exactly base_value.
    """
    total = weights.total()
    if total <= 0:
        raise ValueError("total weight must be positive")
    names = weights.sectors()
    missing = [name for name in names if name not in sector_relatives]
    if missing:
        raise ValueError(f"missing sector series: {', '.join(sorted(missing))}")
    reference = sector_relatives[names[0]]
    for name in names:
        if not sector_relatives[name].aligned_with(reference):
            raise ValueError(f"sector series {name!r} is not aligned with {names[0]!r}")
    acc = sum(weights.weights[name] * sector_relatives[name].values for name in names)
    return TimeSeries(reference.start, base_value * acc / total)


# ---------------------------------------------------------------------------
# Synthetic economy
# ---------------------------------------------------------------------------

SYNTH_START = MonthStamp(1991, 1)
TARGET_NAME = "activity"

# Months by which each synthetic feed leads the activity index. These leads are
# planted by the generator and double as the shipped optimal lags of the
# network presets.
PREDICTOR_LEADS: Mapping[str, int] = MappingProxyType(
    {
        "power": 10,
        "stocks_local": 5,
        "stocks_foreign": 5,
        "crude": 7,
        "tbill_rate": 10,
        "gold": 2,
        "copper": 8,
        "eurodollar": 10,
        "commodities": 12,
        "utilities": 3,
        "loan_rate": 1,
        "exchange_rate": 6,
        "inflation": 9,
    }
)

# Noise multipliers, relative to the size of a typical monthly move. Calibrated
# so that at noise_scale 0.1 the index direction stays predictable but not
# perfectly so (single-expert hit ceiling near 90 percent) while individual
# feeds are noisy enough that combining experts pays.
_SECTOR_NOISE = 3.0
_PREDICTOR_NOISE = 5.0
# A generated value is a few hundred times noise_scale at most seeds (under
# 1e5 times it for any draw within 40 sigma), so below this bound none overflows.
_NOISE_SCALE_MAX = 1e300


@dataclass(frozen=True)
class SyntheticBundle:
    """Deterministic bundle of target index, sector relatives, and leading feeds."""

    series: Dict[str, TimeSeries]
    planted_leads: Dict[str, int]
    cycle_period: int
    seed: int
    months: int
    noise_scale: float

    @property
    def target(self) -> TimeSeries:
        return self.series[TARGET_NAME]

    def metadata(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "months": self.months,
            "cycle_period": self.cycle_period,
            "noise_scale": self.noise_scale,
            "target": TARGET_NAME,
            "planted_leads": dict(self.planted_leads),
        }


def _quantize6(values: np.ndarray) -> np.ndarray:
    # Snap to the 6-significant-digit CSV dialect so render/parse round-trips
    # bit-exactly.
    return np.array([float(f"{v:.6g}") for v in values.tolist()])


def synthesize_economy(
    seed: int,
    months: int,
    cycle_period: int = 12,
    noise_scale: float = 0.1,
) -> SyntheticBundle:
    """Generate a desk-scale economy: a weighted activity index with a planted
    cycle plus feeds that lead it by known months.

    Deterministic per argument tuple. Sector relatives carry the cycle, a mild
    trend, and (scaled) idiosyncratic noise; the target is their fixed-weight
    index. Each predictor is an affine image of the clean index component
    `planted_leads[name]` months ahead, plus its own noise.
    """
    if not is_number(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    if months < 24:
        raise ValueError(f"months must be >= 24, got {months}")
    most = MonthStamp(9999, 12).months_since(SYNTH_START) + 1  # 9999-12: the last YYYY-MM
    if months > most:
        raise ValueError(f"months must be <= {most}, the months from {SYNTH_START} to 9999-12, "
                         f"got {months}")
    if cycle_period < 2:
        raise ValueError(f"cycle_period must be >= 2, got {cycle_period}")
    # NaN and inf fail a comparison, as does an int too large for a float
    if not (is_number(noise_scale, numbers.Real) and 0 <= noise_scale <= sys.float_info.max):
        raise ValueError(f"noise_scale must be a finite number >= 0, got {noise_scale!r}")
    if noise_scale > _NOISE_SCALE_MAX:
        raise ValueError(f"noise_scale must be <= {_NOISE_SCALE_MAX:g}, got {noise_scale!r}")

    rng = np.random.default_rng(seed)
    max_lead = max(PREDICTOR_LEADS.values())
    horizon = months + max_lead
    t = np.arange(horizon, dtype=float)
    phase = rng.uniform(0.0, cycle_period)
    cycle = np.sin(2.0 * np.pi * (t + phase) / cycle_period)

    total_w = DEFAULT_SECTOR_WEIGHTS.total()
    core = np.zeros(horizon)  # clean (noise-free) relative part of the index
    relatives: Dict[str, TimeSeries] = {}
    for name in SECTOR_NAMES:
        amp = rng.uniform(0.03, 0.09)
        trend = rng.uniform(0.0002, 0.0008)
        eps = rng.standard_normal(horizon)
        clean = amp * cycle + trend * t
        noisy = clean + noise_scale * _SECTOR_NOISE * amp * eps
        relatives[name] = TimeSeries(SYNTH_START, _quantize6(1.0 + noisy))
        core += (DEFAULT_SECTOR_WEIGHTS.weights[name] / total_w) * clean

    target_full = laspeyres_index(relatives, DEFAULT_SECTOR_WEIGHTS, 100.0)
    move_scale = float(np.std(np.diff(core)))

    series: Dict[str, TimeSeries] = {
        TARGET_NAME: TimeSeries(SYNTH_START, _quantize6(target_full.values[:months]))
    }
    for name in SECTOR_NAMES:
        series[name] = TimeSeries(SYNTH_START, relatives[name].values[:months])
    for name, lead in PREDICTOR_LEADS.items():
        level = rng.uniform(20.0, 500.0)
        gain = rng.uniform(0.5, 1.5)
        eta = rng.standard_normal(months)
        values = level * (
            1.0
            + gain * core[lead : lead + months]
            + noise_scale * _PREDICTOR_NOISE * gain * move_scale * eta
        )
        series[name] = TimeSeries(SYNTH_START, _quantize6(values))

    return SyntheticBundle(
        series=series,
        planted_leads=dict(PREDICTOR_LEADS),
        cycle_period=cycle_period,
        seed=seed,
        months=months,
        noise_scale=noise_scale,
    )
