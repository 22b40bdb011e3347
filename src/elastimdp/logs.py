"""Measurement logs: records, CSV ingestion, and bucketed selection.

Records are grouped by (active VM count, load bucket); a query for a
(vms, load) pair returns the records of the nearest populated bucket and
flags the result as interpolated whenever it had to borrow from a
neighboring bucket or cluster size.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from math import floor, inf
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import ConfigurationError, DataFormatError, NoDataError
from .model import slot_setters

if TYPE_CHECKING:  # emulator, rewards and policies import this module
    from .emulator import EnvironmentTape
    from .policies import RewardRow, SolvedModel

CSV_HEADER = ("time", "vms", "load", "latency_ms", "throughput")


@dataclass(frozen=True, slots=True, init=False)
class MeasurementRecord:
    """One monitoring sample (one tick is 30 s in the default schedule).
    Construction raises ValueError for a size below 1, a negative time, or
    a measurement that is negative, NaN or infinite."""

    time: int
    vms: int
    load: float
    latency_ms: float
    throughput: float

    def __init__(
        self, time: int, vms: int, load: float, latency_ms: float, throughput: float
    ) -> None:
        if vms < 1:
            raise ValueError(f"vms must be >= 1, got {vms}")
        if time < 0:
            raise ValueError(f"time must be >= 0, got {time}")
        # One chained test per field rejects negatives, NaN and infinities.
        if not (0 <= load < inf and 0 <= latency_ms < inf and 0 <= throughput < inf):
            bad = [
                f"{name}={value!r}"
                for name, value in (
                    ("load", load),
                    ("latency_ms", latency_ms),
                    ("throughput", throughput),
                )
                if not 0 <= value < inf
            ]
            raise ValueError(f"measurements must be finite and >= 0: {', '.join(bad)}")
        # Set through `slot_setters`: a data set holds thousands of records.
        _set_time(self, time)
        _set_vms(self, vms)
        _set_load(self, load)
        _set_latency_ms(self, latency_ms)
        _set_throughput(self, throughput)


_set_time, _set_vms, _set_load, _set_latency_ms, _set_throughput = slot_setters(MeasurementRecord)


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
      clustering config and utility: the model states its sizes' cells
      make (each size's behavior clusters and their MB and EB summaries)
      and the interpolation notes (filled by `policies.reward_row`, which
      clusters the row's cells in one call and scores every size from the
      k-means arrays in another);
    * `solve_memo`: one `policies.SolvedModel` per MDP policy kind, model
      config, clustering config, utility and load bucket: the model (which
      keeps each size's `BehaviorMatcher` as `MdpModel.start` reaches it),
      its interpolation notes and arrival values, and, filled as decisions
      reach them, each start state's `PolicyDecision` (filled by
      `policies.MdpPolicy.decide`);
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
        if not 0 < bucket_width < inf:
            raise ValueError("bucket_width must be positive")
        self.bucket_width = width = float(bucket_width)
        self._buckets: dict[tuple[int, int], list[MeasurementRecord]] = {}
        buckets = self._buckets
        for record in records:
            try:  # `bucket(record.load)`, inlined: a data set holds thousands of records
                key = (record.vms, floor(record.load / width + 0.5))
            except OverflowError:
                raise _no_bucket(record.load, width) from None
            cell = buckets.get(key)
            if cell is None:
                buckets[key] = [record]
            else:
                cell.append(record)
        counts = set(map(len, self._buckets.values()))
        self.uniform_count = counts.pop() if len(counts) == 1 else None
        self._selections: dict[tuple[int, int], LogSelection] = {}
        self.reward_memo: dict[tuple, RewardRow] = {}
        self.solve_memo: dict[tuple, SolvedModel] = {}
        self.tape_memo: dict[tuple, EnvironmentTape] = {}

    def __len__(self) -> int:
        return sum(map(len, self._buckets.values()))

    def bucket(self, load: float) -> int:
        """Index of the load bucket `load` falls in (nearest bucket center).
        A width too small for `load` puts it in no finite bucket."""
        try:
            return floor(load / self.bucket_width + 0.5)
        except OverflowError:
            raise _no_bucket(load, self.bucket_width) from None

    def select_logs(self, vms_num: int, load: float) -> LogSelection:
        """Records for `vms_num` in the load bucket nearest `load`.

        Without records in that cell, the nearest populated cell stands in,
        flagged as interpolated: the nearest size first (ties toward fewer
        VMs), then the nearest bucket of that size (ties toward the lower
        bucket).  Repeated queries of one (vms, load bucket) pair return
        the same selection.
        """
        if not self._buckets:
            raise NoDataError("log store is empty")
        query = (vms_num, self.bucket(load))
        selection = self._selections.get(query)
        if selection is None:
            selection = self._selections[query] = self._select(*query)
        return selection

    def _select(self, vms_num: int, bucket: int) -> LogSelection:
        """The exact cell, else the populated one least by (size gap, size, bucket gap, bucket)."""
        query = (vms_num, bucket)
        cell = query if query in self._buckets else min(
            self._buckets, key=lambda c: (abs(c[0] - vms_num), c[0], abs(c[1] - bucket), c[1])
        )
        return LogSelection(
            tuple(self._buckets[cell]), cell != query, cell[0], cell[1] * self.bucket_width
        )


def _no_bucket(load: float, width: float) -> ConfigurationError:
    return ConfigurationError(f"load {load!r} over bucket width {width!r} has no finite bucket")


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
        if not "".join(row).strip():  # no cell holds more than whitespace
            continue
        try:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
            records.append(
                MeasurementRecord(
                    int(row[0]), int(row[1]), float(row[2]), float(row[3]), float(row[4])
                )
            )
        except ValueError as exc:
            bad.append(f"line {lineno}: {exc}")
    if bad:
        raise DataFormatError(f"{source}: rejected {len(bad)} row(s): " + "; ".join(bad))
    return records


def read_records_csv(path: str) -> list[MeasurementRecord]:
    """`parse_records_csv` of the file at `path`, read as UTF-8; a leading
    byte-order mark, as some spreadsheet exports write, is dropped."""
    with open(path, encoding="utf-8-sig") as handle:
        return parse_records_csv(handle.read(), source=path)


def write_records_csv(path: str, records: Sequence[MeasurementRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([r.time, r.vms, repr(r.load), repr(r.latency_ms), repr(r.throughput)])
