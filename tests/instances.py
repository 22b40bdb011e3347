"""Randomized model instances shared by solver tests and acceptance."""

from __future__ import annotations

import numpy as np

from elastimdp.model import MdpModel, MdpState, ModelConfig, Variant, build_model


def random_instance(rng: np.random.Generator, max_span: int = 6, max_k: int = 3) -> MdpModel:
    """One random model: variant, span <= max_span, k <= max_k, rewards
    uniform in [-1, 10], random cluster weights and centers."""
    min_vms = int(rng.integers(1, 8))
    max_vms = min_vms + int(rng.integers(0, max_span + 1))
    variant = Variant(str(rng.choice(["M1", "M2", "M3"])))
    k = 1 if variant is Variant.M1 else int(rng.integers(1, max_k + 1))
    config = ModelConfig(
        min_vms=min_vms,
        max_vms=max_vms,
        add_limit=int(rng.integers(1, 4)),
        rem_limit=int(rng.integers(1, 4)),
        variant=variant,
        k=k,
    )
    states = []
    for size in config.sizes:
        n = 1 if variant is Variant.M1 else int(rng.integers(1, k + 1))
        weights = rng.dirichlet(np.ones(n)) if n > 1 else np.array([1.0])
        # reward before center: the draws keep the order the instances were
        # first drawn in
        states += [
            MdpState(
                size,
                index,
                weight=float(w),
                reward=float(rng.uniform(-1.0, 10.0)),
                center=(float(rng.uniform(5.0, 120.0)), float(rng.uniform(100.0, 50000.0))),
            )
            for index, w in enumerate(weights)
        ]
    current = int(rng.integers(min_vms, max_vms + 1))
    return build_model(config, states, current)


def random_query_text(rng: np.random.Generator) -> str:
    """A random one- or two-clause Pmax/Pmin reachability query string."""
    head = "Pmax" if rng.random() < 0.5 else "Pmin"
    clauses = []
    for _ in range(int(rng.integers(1, 3))):
        field = str(rng.choice(["vms_num", "latency", "throughput"]))
        op = str(rng.choice(["<", "<=", ">", ">=", "="]))
        if field == "vms_num":
            value = str(int(rng.integers(1, 15)))
        elif field == "latency":
            value = f"{rng.uniform(5.0, 120.0):.3f}"
        else:
            value = f"{rng.uniform(100.0, 50000.0):.1f}"
        clauses.append(f"{field}{op}{value}")
    return f"{head}=? [ F {' & '.join(clauses)} ]"
