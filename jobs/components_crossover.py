"""Measure the union-find vs distributed-propagation crossover for
connected components (round-4 verdict #4).

Generates synthetic pair sets at several sizes — a mix of random-graph
edges (shallow components) and long chains (deep components, the
distributed loop's worst case is O(log diameter) rounds) — and times both
regimes on each. The result is encoded as
``stages.dedup.DRIVER_PAIR_LIMIT`` and recorded in BASELINE.md.

    python jobs/components_crossover.py [--sizes 20000,100000,500000,2000000]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import pandas as pd

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)


def make_pairs(n_pairs: int, seed: int = 7) -> pd.DataFrame:
    """Half random edges over a node universe sized to give avg degree ~2
    (lots of small components), half long chains of length 1024 (depth for
    the pointer-jumping loop)."""
    rng = np.random.default_rng(seed)
    n_random = n_pairs // 2
    n_nodes = max(4, n_pairs)  # avg degree ~2 over the random half
    a = rng.integers(0, n_nodes, n_random, dtype=np.int64)
    b = rng.integers(0, n_nodes, n_random, dtype=np.int64)
    n_chain = n_pairs - n_random
    base = np.arange(n_chain, dtype=np.int64) + n_nodes
    step = 1024
    nxt = base + 1
    nxt[step - 1 :: step] = base[step - 1 :: step]  # break into chains
    df = pd.DataFrame(
        {"id_a": np.r_[a, base], "id_b": np.r_[b, nxt]}
    )
    df = df[df.id_a != df.id_b].reset_index(drop=True)
    return df


def run(sizes):
    import ray
    import ray.data as rd

    from schema_guru_ray.stages.dedup import (
        connected_components,
        connected_components_distributed,
    )
    from schema_guru_ray.stages.joins import DEFAULT_ROWS_PER_BUCKET

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=16, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    rows = []
    for n in sizes:
        df = make_pairs(n)
        ds = rd.from_pandas(df).repartition(
            max(2, n // DEFAULT_ROWS_PER_BUCKET)).materialize()

        t0 = time.perf_counter()
        local = ds.to_pandas()
        roots = connected_components(
            zip(local["id_a"].to_numpy(), local["id_b"].to_numpy())
        )
        t_driver = time.perf_counter() - t0

        t0 = time.perf_counter()
        labels = connected_components_distributed(ds)
        lab_df = labels.to_pandas()
        t_dist = time.perf_counter() - t0

        # same labels in both regimes (min-of-component)
        want = pd.Series(roots).sort_index()
        got = lab_df.set_index("node")["label"].sort_index()
        assert want.index.equals(got.index) and (want.to_numpy() == got.to_numpy()).all(), (
            f"label mismatch at n={n}"
        )
        rows.append(
            {"pairs": len(df), "driver_sec": round(t_driver, 2),
             "distributed_sec": round(t_dist, 2)}
        )
        print(json.dumps(rows[-1]), flush=True)
    return rows


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="20000,100000,500000,2000000")
    args = ap.parse_args()
    rows = run([int(s) for s in args.sizes.split(",")])
    print(json.dumps({"table": rows}))
    import ray

    ray.shutdown()
