"""Randomized differential testing of distributed connected components
(stages/dedup.py connected_components_distributed) against an
independent in-test BFS oracle.

The structured oracle (dup_components_documents, recursive-CTE SQL)
checks one fixed corpus shape; this fuzzes the GRAPH TOPOLOGY — the
dimension the pointer-jumping algorithm is actually sensitive to:

- long path graphs (diameter stress: convergence must be O(log d)
  rounds, and the round bound must not trip),
- Erdős–Rényi sprinkles (many small components + a giant one),
- stars and disjoint cliques (degree skew),
- self-loops and duplicate/reversed edges (idempotent unions).

Labels are compared as PARTITIONS (set of frozensets) so the test is
independent of which representative each implementation picks, then the
distributed min-propagation invariant (label == component minimum) is
pinned separately. Seeds fixed; failures reproduce exactly.
"""

from collections import defaultdict, deque

import numpy as np
import pandas as pd
import pytest

SEEDS = [7, 19, 42, 63, 88]


def _bfs_components(edges) -> set:
    """Independent oracle: plain BFS over an adjacency map."""
    adj = defaultdict(set)
    nodes = set()
    for a, b in edges:
        nodes.add(a)
        nodes.add(b)
        adj[a].add(b)
        adj[b].add(a)
    seen, comps = set(), []
    for start in nodes:
        if start in seen:
            continue
        comp, q = {start}, deque([start])
        seen.add(start)
        while q:
            x = q.popleft()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    q.append(y)
        comps.append(frozenset(comp))
    return set(comps)


def _random_edges(rng) -> list:
    edges = []
    base = 0
    # long path: diameter stress for the pointer-jumping loop
    path_len = int(rng.integers(50, 400))
    edges += [(base + i, base + i + 1) for i in range(path_len)]
    base += path_len + 10
    # star: one hub, degree skew
    fan = int(rng.integers(5, 80))
    edges += [(base, base + 1 + i) for i in range(fan)]
    base += fan + 10
    # disjoint cliques
    for _ in range(int(rng.integers(1, 5))):
        k = int(rng.integers(2, 9))
        members = [base + i for i in range(k)]
        edges += [(a, b) for i, a in enumerate(members)
                  for b in members[i + 1:]]
        base += k + 5
    # Erdős–Rényi sprinkle over a fresh id range
    n_rand = int(rng.integers(20, 250))
    ids = rng.integers(base, base + 500, size=(n_rand, 2)).astype(np.int64)
    edges += [tuple(map(int, e)) for e in ids]
    # adversarial noise: self-loops, duplicates, reversed duplicates
    edges += [(base + 1, base + 1)]
    dups = [edges[int(i)] for i in rng.integers(0, len(edges), 10)]
    edges += dups + [(b, a) for a, b in dups[:5]]
    rng.shuffle(edges)
    return edges


def _partition_from_labels(df: pd.DataFrame) -> set:
    groups = defaultdict(set)
    for node, label in zip(df["node"], df["label"]):
        groups[int(label)].add(int(node))
    return {frozenset(v) for v in groups.values()}


@pytest.mark.usefixtures("ray_session")
class TestComponentsDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_distributed_matches_bfs_oracle(self, seed):
        import ray.data as rd

        from schema_guru_ray.stages.dedup import (
            connected_components_distributed,
        )

        rng = np.random.default_rng(seed)
        edges = _random_edges(rng)
        want = _bfs_components(edges)

        pairs = pd.DataFrame(edges, columns=["id_a", "id_b"]).astype("int64")
        got_df = connected_components_distributed(
            rd.from_pandas(pairs).repartition(4)
        ).to_pandas()

        got = _partition_from_labels(got_df)
        assert got == want, f"seed {seed}: partition mismatch"
        # min-propagation invariant: every label is its component's min
        for comp in got:
            lbl = got_df.loc[got_df["node"].isin(comp), "label"].unique()
            assert list(lbl) == [min(comp)]

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_auto_regimes_agree(self, seed, monkeypatch):
        """Both regimes of connected_components_auto must produce the
        same labels on the same graph (the driver union-find is forced by
        a huge limit, the distributed path by limit=0)."""
        import ray.data as rd

        from schema_guru_ray.stages import dedup
        from schema_guru_ray.stages.dedup import connected_components_auto

        rng = np.random.default_rng(seed)
        pairs = pd.DataFrame(
            _random_edges(rng), columns=["id_a", "id_b"]).astype("int64")
        ds = rd.from_pandas(pairs).repartition(3)
        monkeypatch.setattr(dedup, "DRIVER_PAIR_LIMIT", 10**9)
        small = connected_components_auto(ds).to_pandas()
        monkeypatch.setattr(dedup, "DRIVER_PAIR_LIMIT", 0)
        big = connected_components_auto(ds).to_pandas()
        s = small.sort_values("node").reset_index(drop=True)
        b = big.sort_values("node").reset_index(drop=True)
        pd.testing.assert_frame_equal(s, b, check_dtype=False)
