"""Measurement logs: records, CSV ingestion, and bucketed selection.

Records are grouped by (active VM count, load bucket); a query for a
(vms, load) pair returns the records of the nearest populated bucket and
flags the result as interpolated whenever it had to borrow from a
neighboring bucket or cluster size.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ConfigurationError, DataFormatError, NoDataError

if TYPE_CHECKING:  # emulator, rewards and policies import this module
    from .emulator import EnvironmentTape
    from .model import MdpModel
    from .policies import RewardRow

CSV_HEADER = ("time", "vms", "load", "latency_ms", "throughput")


@dataclass(frozen=True, slots=True)
class MeasurementRecord:
    """One monitoring sample (one tick is 30 s in the default schedule)."""

    time: int
    vms: int
    load: float
    latency_ms: float
    throughput: float

    def __post_init__(self) -> None:
        if self.vms < 1:
            raise ValueError(f"vms must be >= 1, got {self.vms}")
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")
        # One chained test per field rejects negatives, NaN and infinities.
        if not (
            0 <= self.load < math.inf
            and 0 <= self.latency_ms < math.inf
            and 0 <= self.throughput < math.inf
        ):
            bad = [
                f"{name}={value!r}"
                for name, value in (
                    ("load", self.load),
                    ("latency_ms", self.latency_ms),
                    ("throughput", self.throughput),
                )
                if not 0 <= value < math.inf
            ]
            raise ValueError(f"measurements must be finite and >= 0: {', '.join(bad)}")


@dataclass(frozen=True, slots=True)
class LogSelection:
    """Records chosen for a (vms, load) query, with provenance."""

    records: tuple[MeasurementRecord, ...]
    interpolated: bool
    vms_used: int
    bucket_center: float


class LogStore:
    """Bucketed measurement log, fixed at construction.

    The records are bucketed once, by `__init__`, which also notes the
    `uniform_count` of records in every cell (None if uneven or empty).
    Four memos keep what is derived from them:

    * the selections: one `LogSelection` per (vms, load bucket) query
      (filled by `select_logs`);
    * `reward_memo`: one `policies.RewardRow` per load bucket, size range,
      clustering config and utility: each size's selection and
      `StateReward` (its cell's behavior clusters scored for MB, EB and
      multi-behavior models) and the interpolation notes (filled by
      `policies.reward_row`, which clusters the row's cells in one call);
    * `solve_memo`: one (model, interpolation notes, arrival values)
      entry per MDP policy kind, model config, clustering config, utility
      and load bucket (filled by `policies.mdp_decide`);
    * `tape_memo`: a run's `EnvironmentTape`, per seeded bit-generator
      state, load profile, horizon, noise fraction and utility (filled by
      `emulator.environment_tape`).  It holds the run's (load, record
      index, latency noise, throughput noise) per tick and the `TickRecord`
      each (tick, size) emulates to, added by the first episode at that
      size on that tick (`emulator.run_episode`).

    Each entry is a pure function of the fixed store and its key, so
    filling a memo is idempotent, no entry goes stale, and a built store
    can be shared freely across episodes, policies and what-if requests.
    """

    def __init__(self, records: Iterable[MeasurementRecord] = (), bucket_width: float = 1000.0):
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.bucket_width = float(bucket_width)
        self._buckets: dict[tuple[int, int], list[MeasurementRecord]] = {}
        for record in records:
            self._buckets.setdefault((record.vms, self.bucket(record.load)), []).append(record)
        counts = set(map(len, self._buckets.values()))
        self.uniform_count = counts.pop() if len(counts) == 1 else None
        self._selections: dict[tuple[int, int], LogSelection] = {}
        self.reward_memo: dict[tuple, RewardRow] = {}
        self.solve_memo: dict[tuple, tuple[MdpModel, tuple[str, ...], list[dict[int, float]]]] = {}
        self.tape_memo: dict[tuple, EnvironmentTape] = {}

    def __len__(self) -> int:
        return sum(map(len, self._buckets.values()))

    def bucket(self, load: float) -> int:
        """Index of the load bucket `load` falls in (nearest bucket center).
        A width too small for `load` puts it in no finite bucket."""
        try:
            return math.floor(load / self.bucket_width + 0.5)
        except OverflowError:
            raise ConfigurationError(
                f"load {load!r} over bucket width {self.bucket_width!r} has no finite bucket"
            ) from None

    def select_logs(self, vms_num: int, load: float) -> LogSelection:
        """Records for `vms_num` in the load bucket nearest `load`.

        Falls back to the closest populated bucket of the same size, then
        to the closest size (ties toward fewer VMs), flagging the result
        as interpolated.  Repeated queries of one (vms, load bucket) pair
        return the same selection.
        """
        if not self._buckets:
            raise NoDataError("log store is empty")
        query = (vms_num, self.bucket(load))
        selection = self._selections.get(query)
        if selection is None:
            selection = self._selections[query] = self._select(*query)
        return selection

    def _select(self, vms_num: int, bucket: int) -> LogSelection:
        exact = self._buckets.get((vms_num, bucket))
        if exact:
            return LogSelection(tuple(exact), False, vms_num, bucket * self.bucket_width)

        same_size = [b for v, b in self._buckets if v == vms_num]
        if same_size:
            nearest = min(same_size, key=lambda b: (abs(b - bucket), b))
            return LogSelection(
                tuple(self._buckets[(vms_num, nearest)]),
                True,
                vms_num,
                nearest * self.bucket_width,
            )

        nearest_vms, nearest_bucket = min(
            self._buckets,
            key=lambda key: (abs(key[0] - vms_num), key[0], abs(key[1] - bucket), key[1]),
        )
        return LogSelection(
            tuple(self._buckets[(nearest_vms, nearest_bucket)]),
            True,
            nearest_vms,
            nearest_bucket * self.bucket_width,
        )


def parse_records_csv(text: str, source: str = "<string>") -> list[MeasurementRecord]:
    """Parse the `time,vms,load,latency_ms,throughput` CSV format.

    Malformed rows are rejected; the error lists every offending line
    number.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise DataFormatError(f"{source}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{source}: empty file")
    if tuple(h.strip() for h in rows[0]) != CSV_HEADER:
        raise DataFormatError(
            f"{source}: line 1: expected header {','.join(CSV_HEADER)!r}"
        )
    records = []
    bad: list[str] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
            records.append(
                MeasurementRecord(
                    time=int(row[0]),
                    vms=int(row[1]),
                    load=float(row[2]),
                    latency_ms=float(row[3]),
                    throughput=float(row[4]),
                )
            )
        except ValueError as exc:
            bad.append(f"line {lineno}: {exc}")
    if bad:
        raise DataFormatError(f"{source}: rejected {len(bad)} row(s): " + "; ".join(bad))
    return records


def read_records_csv(path: str) -> list[MeasurementRecord]:
    with open(path, encoding="utf-8") as handle:
        return parse_records_csv(handle.read(), source=path)


def write_records_csv(path: str, records: Sequence[MeasurementRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([r.time, r.vms, repr(r.load), repr(r.latency_ms), repr(r.throughput)])
