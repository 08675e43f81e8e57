"""Mergeable sketch states (HyperLogLog distinct, KLL quantiles,
Misra-Gries heavy hitters, Bloom membership) and distribution-drift scores
(PSI / KS) computed from them.

All sketches are commutative monoids — same contract as the schema states —
so they flow through the identical per-batch partial + tiny final merge
topology (SURVEY.md §2.5 A11). :func:`fold_sketch_states` folds any of them
with :func:`schema_guru_ray.fold.fold_keyed`.
"""

from __future__ import annotations

import pickle

from schema_guru_ray.sketches.drift import ks_statistic, psi
from schema_guru_ray.sketches.heavy import MisraGries
from schema_guru_ray.sketches.hll import HLL
from schema_guru_ray.sketches.kll import KLL


def fold_sketch_states(states_ds):
    """Fold a Dataset with one pickled mergeable-sketch per row (column
    ``state``) down to ONE sketch via ``a.merge(b)``, through
    :func:`schema_guru_ray.fold.fold_keyed`. Returns None for an empty
    input."""
    import pandas as pd

    from schema_guru_ray.fold import fold_keyed

    def combine(frame: "pd.DataFrame") -> "pd.DataFrame":
        acc = None
        for buf in frame["state"]:
            sk = pickle.loads(buf)
            acc = sk if acc is None else acc.merge(sk)
        return pd.DataFrame({"state": [pickle.dumps(acc)]})

    out = fold_keyed(states_ds, [], combine)
    return None if out.empty else pickle.loads(out["state"].iloc[0])


__all__ = ["HLL", "KLL", "MisraGries", "psi", "ks_statistic", "fold_sketch_states"]
