"""The per-sample forms of the measurement-log set-up, kept as test-side
references: the record class that checks its fields after the generated
frozen `__init__` has set them, the synthetic generator that makes two
scalar noise draws per record, the CSV row loop that builds each record
by keyword, and the store's bucketing through `LogStore.bucket`.  The
package's per-size draws, slot-setting constructor, positional row loop
and inlined bucketing must return what these return, record for record
and error for error."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from elastimdp.emulator import SyntheticModelParams
from elastimdp.errors import DataFormatError
from elastimdp.logs import CSV_HEADER, LogStore


@dataclass(frozen=True, slots=True)
class MeasurementRecord:
    """The package's record, checked in `__post_init__`; its repr reads
    like the package's."""

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


def gen_synthetic_dataset(
    params: SyntheticModelParams, sizes, load_grid, seed: int = 0
) -> list[MeasurementRecord]:
    rng = np.random.default_rng(seed)
    records = []
    tick = 0
    for vms in sizes:
        for load in load_grid:
            lat = params.latency(vms, load)
            thr = params.throughput(vms, load)
            for _ in range(params.samples_per_point):
                noisy_lat = max(0.0, float(lat * rng.normal(1.0, params.noise_stddev_fraction)))
                noisy_thr = max(0.0, float(thr * rng.normal(1.0, params.noise_stddev_fraction)))
                records.append(MeasurementRecord(tick, vms, float(load), noisy_lat, noisy_thr))
                tick += 1
    return records


def parse_records_csv(text: str, source: str = "<string>") -> list[MeasurementRecord]:
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
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


def buckets(records, bucket_width: float) -> dict[tuple[int, int], list]:
    """The store's cells, each record placed by `LogStore.bucket`."""
    store = LogStore((), bucket_width)
    cells: dict[tuple[int, int], list] = {}
    for record in records:
        cells.setdefault((record.vms, store.bucket(record.load)), []).append(record)
    return cells
