"""Distribution-drift scores between a baseline and a current KLL sketch.

* PSI (population stability index): bins from the BASELINE sketch's deciles,
  proportions from both sketches' CDFs, ``sum((p-q) * ln(p/q))`` with
  epsilon clamping. Common industry thresholds: <0.1 stable, 0.1-0.25
  moderate, >0.25 major drift.
* KS statistic: ``max |F_base(x) - F_cur(x)|`` over the union of retained
  sketch items.

The baseline sketch store is a small dict {column -> KLL bytes} broadcast
via ``ray.put`` and loaded once per worker process (SURVEY.md §2.3).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from schema_guru_ray.sketches.kll import KLL

_EPS = 1e-6


def _bin_props(sk: KLL, edges: np.ndarray) -> np.ndarray:
    cdf = sk.cdf(edges)
    props = np.diff(np.concatenate([[0.0], cdf, [1.0]]))
    return np.clip(props, _EPS, None)


def psi(baseline: KLL, current: KLL, n_bins: int = 10) -> float:
    if baseline.n == 0 or current.n == 0:
        return 0.0
    qs = np.linspace(0, 1, n_bins + 1)[1:-1]
    edges = np.unique(np.array([baseline.quantile(q) for q in qs], dtype=np.float64))
    p = _bin_props(baseline, edges)
    q = _bin_props(current, edges)
    p, q = p / p.sum(), q / q.sum()
    return float(np.sum((p - q) * np.log(p / q)))


def ks_statistic(baseline: KLL, current: KLL) -> float:
    if baseline.n == 0 or current.n == 0:
        return 0.0
    xs = np.unique(np.concatenate([baseline.support(), current.support()]))
    if xs.size == 0:
        return 0.0
    return float(np.max(np.abs(baseline.cdf(xs) - current.cdf(xs))))
