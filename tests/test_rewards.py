import dataclasses
import functools
import itertools
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_kmeans
from elastimdp.errors import ConfigurationError, NoDataError
from elastimdp.harness import build_store, default_config_ini, load_dataset, parse_config
from elastimdp.logs import MeasurementRecord
from elastimdp.model import MdpState, ModelConfig, Variant, build_model
from elastimdp.rewards import (
    ClusterSummary,
    ClusteringConfig,
    UtilityConfig,
    UtilityKind,
    cluster_behavior,
    cluster_cells,
    state_reward,
    utility_eval,
)


def recs(points):
    return [MeasurementRecord(i, 4, 10000.0, lat, thr) for i, (lat, thr) in enumerate(points)]


def best_partition_sse(points, k):
    """Exhaustive k-means oracle: optimal assignment by enumerating every
    partition of the (normalized) points into at most k clusters."""
    pts = np.asarray(points, dtype=float)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    normed = (pts - lo) / span
    best = (math.inf, None)
    for labels in itertools.product(range(k), repeat=len(points)):
        sse = 0.0
        for j in set(labels):
            members = normed[[i for i, l in enumerate(labels) if l == j]]
            sse += float(((members - members.mean(axis=0)) ** 2).sum())
        if sse < best[0] - 1e-12:
            best = (sse, labels)
    return best[1]


class TestClustering:
    def test_two_group_example_matches_enumeration_oracle(self):
        points = [(10.0, 100.0), (10.0, 100.0), (10.0, 100.0), (50.0, 200.0)]
        config = ClusteringConfig(k=2, seed=3)
        clusters = cluster_behavior(recs(points), config)
        assert len(clusters) == 2
        assert clusters[0].center == pytest.approx((10.0, 100.0))
        assert clusters[0].weight == 0.75
        assert clusters[1].center == pytest.approx((50.0, 200.0))
        assert clusters[1].weight == 0.25
        # the oracle's optimal partition separates the duplicate group
        labels = best_partition_sse(points, 2)
        assert len({labels[0], labels[3]}) == 2
        assert labels[0] == labels[1] == labels[2]

    def test_k1_returns_the_mean(self):
        points = [(10.0, 100.0), (30.0, 300.0)]
        clusters = cluster_behavior(recs(points), ClusteringConfig(k=1))
        assert len(clusters) == 1
        assert clusters[0].center == pytest.approx((20.0, 200.0))
        assert clusters[0].weight == 1.0

    def test_cluster_count_capped_by_distinct_points(self):
        points = [(10.0, 100.0), (50.0, 200.0), (10.0, 100.0)]
        clusters = cluster_behavior(recs(points), ClusteringConfig(k=4))
        assert len(clusters) == 2

    def test_reproducible_under_fixed_seed(self):
        rng = np.random.default_rng(5)
        points = [(float(l), float(t)) for l, t in rng.uniform(10, 100, size=(40, 2))]
        config = ClusteringConfig(k=4, seed=11)
        first = cluster_behavior(recs(points), config)
        second = cluster_behavior(recs(points), config)
        assert first == second

    def test_sorted_mode_first(self):
        points = [(10.0, 100.0)] * 5 + [(90.0, 900.0)] * 2
        clusters = cluster_behavior(recs(points), ClusteringConfig(k=2, seed=1))
        assert clusters[0].weight > clusters[1].weight

    def test_negative_seed_is_refused(self):
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            ClusteringConfig(seed=-1)

    def test_empty_input(self):
        with pytest.raises(NoDataError):
            cluster_behavior([], ClusteringConfig())

    def test_memberships_invariant_under_axis_scaling(self):
        # min-max normalization makes the clustering independent of the
        # units of each dimension
        rng = np.random.default_rng(17)
        points = [(float(l), float(t)) for l, t in rng.uniform(1, 50, size=(30, 2))]
        scaled = [(lat, thr * 1000.0) for lat, thr in points]
        config = ClusteringConfig(k=3, seed=2)
        base = cluster_behavior(recs(points), config)
        big = cluster_behavior(recs(scaled), config)
        assert [c.weight for c in base] == pytest.approx([c.weight for c in big])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1, max_value=200, allow_nan=False),
                st.floats(min_value=1, max_value=50000, allow_nan=False),
            ),
            min_size=1,
            max_size=25,
        ),
        st.integers(min_value=1, max_value=5),
    )
    def test_weights_form_a_distribution(self, points, k):
        clusters = cluster_behavior(recs(points), ClusteringConfig(k=k, seed=0))
        assert sum(c.weight for c in clusters) == pytest.approx(1.0, abs=1e-9)
        assert all(c.weight > 0 for c in clusters)
        assert len(clusters) <= k


# The config keys that shape each benchmark workload's log store: the
# comparison and what-if workloads read the default store, the scaleout one
# 4..32 VMs over 2000..90000 req/s in 2000 req/s buckets.
STORE_OVERRIDES = {
    "comparison": {"experiment.runs": "2"},
    "scaleout": {
        "model.max_vms": "32",
        "load.load_min_reqs": "2000",
        "load.load_max_reqs": "90000",
        "clustering.load_bucket_width_reqs": "2000",
    },
    "whatif": {"dataset.seed": "99"},
}

CLUSTERING_VARIANTS = {
    "default": {},
    "dims1": {"dims": 1},
    "k2": {"k": 2},
    "iterations3": {"max_iterations": 3},
}


@functools.lru_cache(maxsize=None)
def store_rows(name):
    """Every load bucket's row of cells (one per size) in a default-seed store."""
    config = parse_config(default_config_ini(), STORE_OVERRIDES[name])
    records = load_dataset(config)
    store = build_store(config, records)
    cells = defaultdict(list)
    for record in records:
        cells[(record.vms, store.bucket(record.load))].append(record)
    rows = defaultdict(list)
    for (_, bucket), records in cells.items():
        rows[bucket].append(records)
    return config.clustering, list(rows.values())


def coarse_records():
    """1-60 records on a coarse grid, so duplicates and equidistant points
    (ties in the seeding and the assignment) are common."""
    return st.builds(
        lambda cells, lat_step, thr_step: recs(
            [(a * lat_step, b * thr_step) for a, b in cells]
        ),
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=60
        ),
        st.sampled_from([1.0, 0.1, 2.5, 7.0]),
        st.sampled_from([1.0, 0.3, 250.0, 1e-3]),
    )


def grid_cell(size):
    """A cell of `size` records on a 5x5 grid, so repeated points are
    common and a cell often has fewer distinct points than k; either
    column may be constant (a span of 0).  The grid steps are not powers
    of two, so the order of a sum changes its rounding."""
    return st.builds(
        lambda points, constant: recs(
            [
                (
                    7.0 if constant == "latency" else 0.7 * a + 0.3,
                    2.0 if constant == "throughput" else 13.1 * b + 5.0,
                )
                for a, b in points
            ]
        ),
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=size, max_size=size),
        st.sampled_from(["neither", "latency", "throughput"]),
    )


def mixed_row():
    """1-6 cells of mixed lengths, so one call stacks cells of equal
    length and keeps cells of other lengths apart."""
    return st.lists(st.sampled_from([1, 7, 8, 9, 12, 130]).flatmap(grid_cell), min_size=1, max_size=6)


class TestBatchedMatchesArrayKmeans:
    """`cluster_cells` and `cluster_behavior` against the numpy reference
    in `reference_kmeans`, run on each cell alone: equal clusters, float
    for float."""

    @pytest.mark.parametrize("variant", CLUSTERING_VARIANTS)
    @pytest.mark.parametrize("store", STORE_OVERRIDES)
    def test_every_default_store_row(self, store, variant):
        clustering, rows = store_rows(store)
        config = dataclasses.replace(clustering, **CLUSTERING_VARIANTS[variant])
        assert sum(map(len, rows)) > 500
        for cells in rows:
            assert cluster_cells(cells, config) == [
                reference_kmeans.cluster_behavior(records, config) for records in cells
            ]

    @settings(max_examples=300, deadline=None)
    # The middle point is equidistant from both seeds; the tie goes to the
    # first center.
    @example(recs([(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]), 2, 2, 0, 50)
    @given(
        coarse_records(),
        st.sampled_from([1, 2]),
        st.integers(1, 6),
        st.integers(0, 9),
        st.integers(1, 50),
    )
    def test_random_record_sets(self, records, dims, k, seed, max_iterations):
        config = ClusteringConfig(k=k, dims=dims, seed=seed, max_iterations=max_iterations)
        assert cluster_behavior(records, config) == reference_kmeans.cluster_behavior(
            records, config
        )

    @settings(max_examples=200, deadline=None)
    # Two distinct points and k=4: the centers past the second must win no
    # point, though farthest-point seeding repeats the first seed there.
    @example([recs([(0.0, 0.0), (0.0, 0.0), (3.0, 40.0)]), recs([(3.0, 0.0)] * 7)], 2, 4, 0, 3)
    @given(
        mixed_row(),
        st.sampled_from([1, 2]),
        st.integers(1, 6),
        st.integers(0, 9),
        st.integers(1, 3),
    )
    def test_mixed_rows(self, cells, dims, k, seed, max_iterations):
        # One to three Lloyd's rounds leave some cells unconverged beside
        # converged ones.
        config = ClusteringConfig(k=k, dims=dims, seed=seed, max_iterations=max_iterations)
        assert cluster_cells(cells, config) == [
            reference_kmeans.cluster_behavior(records, config) for records in cells
        ]

    def test_an_empty_cell_is_refused(self):
        with pytest.raises(NoDataError):
            cluster_cells([recs([(1.0, 2.0)]), []], ClusteringConfig())


R1 = UtilityConfig(UtilityKind.R1, 60.0)
R2 = UtilityConfig(UtilityKind.R2, 60.0)


class TestUtility:
    def test_r1_under_threshold(self):
        assert utility_eval(R1, 50.0, 10000.0, 5) == 2000.0

    def test_r1_violation(self):
        assert utility_eval(R1, 70.0, 123456.0, 5) == -1.0

    def test_r2_under_threshold(self):
        assert utility_eval(R2, 50.0, 10000.0, 4) == 0.25

    def test_threshold_boundary_inclusive(self):
        assert utility_eval(R2, 60.0, 1.0, 4) == 0.25
        assert utility_eval(R2, 60.0000001, 1.0, 4) == -1.0

    def test_monotone_in_vms_when_healthy(self):
        for kind in (R1, R2):
            values = [utility_eval(kind, 30.0, 8000.0, v) for v in range(1, 17)]
            assert values == sorted(values, reverse=True)

    def test_r2_range(self):
        for vms in range(4, 17):
            value = utility_eval(R2, 30.0, 8000.0, vms)
            assert 1 / 16 <= value <= 1 / 4


class TestStateReward:
    def clusters(self):
        return [
            ClusterSummary((50.0, 1000.0), 0.75),
            ClusterSummary((70.0, 2000.0), 0.25),
        ]

    def test_mode_behaviour(self):
        result = state_reward(self.clusters(), R1, 4)
        assert result.mb == MdpState(4, center=(50.0, 1000.0), reward=250.0)

    def test_expected_behaviour(self):
        result = state_reward(self.clusters(), R1, 4)
        assert result.eb.reward == pytest.approx(0.75 * 250.0 + 0.25 * -1.0)
        # 0.75 * (50, 1000) + 0.25 * (70, 2000); every term is exact
        assert result.eb == MdpState(4, center=(55.0, 1250.0), reward=187.25)

    def test_single_cluster_summaries_agree(self):
        single = [ClusterSummary((40.0, 1200.0), 1.0)]
        result = state_reward(single, R1, 4)
        assert result.mb == result.eb == MdpState(4, center=(40.0, 1200.0), reward=300.0)

    def test_all_violating(self):
        violating = [
            ClusterSummary((70.0, 1000.0), 0.5),
            ClusterSummary((90.0, 2000.0), 0.5),
        ]
        result = state_reward(violating, R1, 4)
        assert result.mb.reward == result.eb.reward == -1.0

    def test_mode_tie_prefers_lower_latency(self):
        tied = [
            ClusterSummary((70.0, 9000.0), 0.5),
            ClusterSummary((30.0, 1000.0), 0.5),
        ]
        result = state_reward(tied, R1, 4)
        # the 30 ms center wins the tie
        assert result.mb == MdpState(4, center=(30.0, 1000.0), reward=250.0)

    def test_per_cluster_breakdown_for_model_building(self):
        result = state_reward(self.clusters(), R1, 4)
        assert [b.weight for b in result.per_cluster] == [0.75, 0.25]
        assert [b.reward for b in result.per_cluster] == [250.0, -1.0]
        assert result.per_cluster[0].center == (50.0, 1000.0)

    @pytest.mark.parametrize("vms", [1, 4, 16])
    def test_states_carry_the_scored_size_and_their_position(self, vms):
        clusters = self.clusters() + [ClusterSummary((20.0, 500.0), 0.0)]
        result = state_reward(clusters, R1, vms)
        assert [s.key for s in result.per_cluster] == [(vms, 0), (vms, 1), (vms, 2)]
        assert [s.label for s in result.per_cluster] == [f"s{vms}a", f"s{vms}b", f"s{vms}c"]
        for summary in (result.mb, result.eb):
            assert (summary.key, summary.weight, summary.label) == ((vms, 0), 1.0, f"s{vms}")

    def test_scored_states_are_model_states(self):
        sizes = ModelConfig(3, 5, variant=Variant.M2, k=2).sizes
        scored = {v: state_reward(self.clusters(), R1, v) for v in sizes}
        multi = build_model(
            ModelConfig(3, 5, variant=Variant.M2, k=2),
            [s for v in sizes for s in scored[v].per_cluster],
            current=4,
        )
        assert multi.by_size == {v: list(scored[v].per_cluster) for v in sizes}
        single = build_model(ModelConfig(3, 5), [scored[v].mb for v in sizes], current=4)
        assert single.by_size == {v: [scored[v].mb] for v in sizes}

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1, max_value=200, allow_nan=False),
                st.floats(min_value=0, max_value=50000, allow_nan=False),
                st.integers(min_value=1, max_value=20),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_eb_is_a_convex_combination(self, raw):
        total = sum(w for _, _, w in raw)
        clusters = [
            ClusterSummary((lat, thr), w / total) for lat, thr, w in raw
        ]
        result = state_reward(clusters, R1, 4)
        for values, summary in (
            ([b.reward for b in result.per_cluster], result.eb.reward),
            ([lat for lat, _, _ in raw], result.eb.center[0]),
            ([thr for _, thr, _ in raw], result.eb.center[1]),
        ):
            slack = 1e-9 * max(1.0, max(values))
            assert min(values) - slack <= summary <= max(values) + slack
