"""The three-step log selection rule, kept as a test-side reference: the
exact cell, else the nearest bucket of the same size, else the nearest
size and its nearest bucket.  The package folds the two fallbacks into
one ordering of the populated cells; it must select what this selects."""

from __future__ import annotations

import math
from typing import Sequence

from elastimdp.logs import MeasurementRecord


def select_logs(
    records: Sequence[MeasurementRecord], width: float, vms_num: int, load: float
) -> tuple[tuple[MeasurementRecord, ...], bool, int, float]:
    """(records, interpolated, vms used, bucket center) of the query for
    `vms_num` at `load`, over `records` bucketed at `width`."""
    cells: dict[int, dict[int, list[MeasurementRecord]]] = {}
    for record in records:
        bucket = math.floor(record.load / width + 0.5)
        cells.setdefault(record.vms, {}).setdefault(bucket, []).append(record)
    wanted = math.floor(load / width + 0.5)

    def nearest_bucket(size: int) -> int:
        # ties between a lower and a higher bucket go to the lower one
        best = None
        for bucket in sorted(cells[size]):
            if best is None or abs(bucket - wanted) < abs(best - wanted):
                best = bucket
        return best

    if vms_num in cells and wanted in cells[vms_num]:
        return tuple(cells[vms_num][wanted]), False, vms_num, wanted * width
    if vms_num in cells:
        bucket = nearest_bucket(vms_num)
        return tuple(cells[vms_num][bucket]), True, vms_num, bucket * width
    size = None
    for candidate in sorted(cells):  # ties in size go to fewer VMs
        if size is None or abs(candidate - vms_num) < abs(size - vms_num):
            size = candidate
    bucket = nearest_bucket(size)
    return tuple(cells[size][bucket]), True, size, bucket * width
