"""Deterministic sampling operators for training-data curation.

Random sampling is useless for reproducible corpus construction — two runs
(or two engines) must select the SAME rows. Both operators here are pure
functions of row content, so the DuckDB oracle can replay them exactly:

* :func:`deterministic_sample` — content-addressed Bernoulli sampling: a
  row is kept iff its md5 hex digest is lexicographically below the
  rate-derived threshold (fixed-width lowercase hex compares
  lexicographically == numerically, so ``md5(key) < '0ccc…'`` IS
  ``frac < 0.05``). Stable under re-partitioning, resumable, exactly
  reproducible in SQL. No shuffle at all — a pure ``map_batches``
  filter, embarrassingly parallel at 100 TB.

* :func:`stratified_cap` — keep at most ``cap`` rows per stratum (the
  "max N documents per domain" curation rule), choosing each stratum's
  rows by ascending ``(md5(key), key)`` — content-addressed, so again
  deterministic and SQL-replayable via ``row_number() OVER (PARTITION BY
  stratum ORDER BY md5(key), key)``. Distributed as a per-group top-k
  WITHOUT a global sort: each batch pre-reduces to its local ≤cap rows
  per stratum (vectorized pandas groupby-head over a sorted frame), then
  one ``joins.bucketed`` shuffle on the stratum merges the tiny survivors.
  Shuffle volume is O(#batches × #strata × cap), never O(rows).

The md5-per-row map is a ``Series.map`` over short strings — the same
accepted pattern as ``stages/text.py``'s Fingerprinter; there is no
vectorized md5 kernel in numpy/pyarrow, and md5 is the price of exact
cross-engine reproducibility (a SipHash would be faster but is not
available in SQL engines).
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pandas as pd


def md5_hex(keys: pd.Series) -> pd.Series:
    """Lowercase md5 hex digest of each key (stringified). Deterministic
    across processes, machines, and engines (DuckDB ``md5()`` matches)."""
    return keys.astype(str).map(lambda s: hashlib.md5(s.encode()).hexdigest())


def rate_threshold_hex(rate: float, digits: int = 15) -> str:
    """Fixed-width hex threshold such that P(md5_prefix < threshold) ==
    rate. Exact rational arithmetic (float 0.2 × 16^15 rounds the last
    digit, which would silently disagree with a SQL literal)."""
    from fractions import Fraction

    frac = Fraction(rate).limit_denominator(10 ** 9)
    return format(int(frac * (16 ** digits)), f"0{digits}x")


def deterministic_sample(ds, key_column: str, rate: float):
    """Content-addressed Bernoulli sample: keep rows where md5(key) is
    below the rate threshold. Pure filter — no shuffle, no state."""
    threshold = rate_threshold_hex(rate)
    n = len(threshold)

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        return b[md5_hex(b[key_column]).str[:n] < threshold]

    return ds.map_batches(keep, batch_format="pandas")


def stratified_sample(ds, stratum_column: str, key_column: str,
                      rates: dict, default_rate: float = 0.0):
    """Mixture weighting: per-stratum deterministic Bernoulli keep-rates
    (e.g. keep 100% of lang='en', 25% of the rest) — the corpus-mixture
    primitive of training-data curation. Pure filter, no shuffle; the
    same md5-threshold rule as :func:`deterministic_sample`, so a
    stratum's kept set is NESTED across rate changes and exactly
    SQL-replayable."""
    def _th(r: float) -> str:
        # rate >= 1 overflows to 16 hex chars, which sorts BELOW 15-char
        # prefixes lexicographically ('1' < 'f') — use a keep-everything
        # sentinel above the hex alphabet instead
        return "g" if r >= 1.0 else rate_threshold_hex(r)

    thresholds = {s: _th(r) for s, r in rates.items()}
    default_hex = _th(default_rate)

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        th = b[stratum_column].map(thresholds).fillna(default_hex)
        return b[md5_hex(b[key_column]).str[:15] < th]

    return ds.map_batches(keep, batch_format="pandas")


def stratified_cap(ds, stratum_column: str, key_column: str, cap: int,
                   rank_alias: Optional[str] = None):
    """Keep at most ``cap`` rows per stratum, selected by ascending
    (md5(key), key). When ``rank_alias`` is given, the per-stratum rank
    (1-based) is emitted under that column name.

    The merge is one :func:`stages.joins.bucketed` shuffle of the
    ≤cap×batches survivors on the stratum (one Ray dispatch per bucket,
    not per stratum — a per-domain dispatch would be one Python call per
    domain at web scale), finished with a single vectorized sort +
    groupby-head per bucket. The buckets are sized from ``ds.count()``
    (free on a parquet read)."""
    from schema_guru_ray.stages.joins import bucketed

    def local_cap(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(__md5=md5_hex(b[key_column]))
        b = b.sort_values(["__md5", key_column], kind="stable")
        return b.groupby(stratum_column, sort=False).head(cap)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__md5", key_column], kind="stable")
        g = g.groupby(stratum_column, sort=False).head(cap)
        if rank_alias:
            g = g.assign(
                **{rank_alias: (g.groupby(stratum_column, sort=False).cumcount() + 1).astype(np.int64)}
            )
        return g.drop(columns="__md5")

    return bucketed(ds.map_batches(local_cap, batch_format="pandas"),
                    stratum_column, merge_bucket, n_rows=ds.count())


# --- content-addressed train/val/test split assignment ---------------------

#: md5-hex thresholds for the standard 80/10/10 split: fixed-width
#: lowercase hex compares lexicographically == numerically, so these are
#: exactly 0.8 and 0.9 of the hash space. The SQL oracles restate the same
#: literals in their CASE expressions.
SPLIT_T80 = "c" * 32
SPLIT_T90 = "e" + "6" * 31


def md5_split_assign(ids) -> "np.ndarray":
    """80/10/10 split labels from md5(id) — membership is a pure function
    of the id (stable across runs, machines, and corpus growth). Shared by
    split_assign_documents / group_split_events / prepare_training_corpus
    so the fractions live in exactly one place."""
    import hashlib

    import numpy as np
    import pandas as pd

    h = pd.Series([hashlib.md5(str(int(i)).encode()).hexdigest() for i in ids])
    return np.where(h < SPLIT_T80, "train", np.where(h < SPLIT_T90, "val", "test"))
