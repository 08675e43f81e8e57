"""label_centroid_confusion pass-1 fold (round-5 verdict item #1): the
(label, n, sums) partial rows must reduce through fold_keyed's worker-side
tree so the DRIVER reads ≤ one row per label regardless of block count —
never O(#blocks × #labels) driver pandas — and the fold must stay
int64-exact."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from schema_guru_ray import fold


def _mk_parts(n_rows=600, n_labels=40, dim=4, blocks=50):
    rng = np.random.RandomState(7)
    lab = rng.randint(0, n_labels, n_rows).astype(np.int64)
    n = rng.randint(1, 100, n_rows).astype(np.int64)
    S = rng.randint(-10**6, 10**6, (n_rows, dim)).astype(np.int64)

    import ray.data as rd

    t = pa.table({
        "label": pa.array(lab, pa.int64()),
        "n": pa.array(n, pa.int64()),
        "sums": pa.array([r.tobytes() for r in S], pa.binary()),
    })
    ds = rd.from_arrow(t).repartition(blocks)
    uniq, inv = np.unique(lab, return_inverse=True)
    esum = np.zeros((len(uniq), dim), np.int64)
    np.add.at(esum, inv, S)
    ecnt = np.zeros(len(uniq), np.int64)
    np.add.at(ecnt, inv, n)
    return ds, uniq, ecnt, esum


def _driver_rows(monkeypatch):
    """Record the row count of every label combine run in this process —
    the driver's; workers run copies of the wrapper."""
    from schema_guru_ray.pipelines.queries import dedup_q

    seen = []

    def spy(parts, key, combine):
        def counted(frame):
            seen.append(len(frame))
            return combine(frame)

        return fold.fold_keyed(parts, key, counted)

    monkeypatch.setattr(dedup_q, "fold_keyed", spy)
    return seen


def _tree(monkeypatch, limit, fanin):
    monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", limit)
    monkeypatch.setattr(fold, "FANIN", fanin)


@pytest.mark.usefixtures("ray_session")
class TestLabelSumFold:
    def test_packed_fold_driver_rows_bounded_and_exact(self, monkeypatch):
        from schema_guru_ray.pipelines.queries.dedup_q import _fold_label_sums

        ds, uniq, ecnt, esum = _mk_parts()
        _tree(monkeypatch, 16, 8)
        seen = _driver_rows(monkeypatch)
        labels, counts, sums = _fold_label_sums(ds)
        # 600 partial rows, 50 blocks, 40 labels — the driver folded ≤ 40
        assert seen and max(seen) <= len(uniq)
        assert np.array_equal(labels, uniq)
        assert np.array_equal(counts, ecnt)
        assert np.array_equal(sums, esum)

    def test_non_power_of_two_fanin(self, monkeypatch):
        from schema_guru_ray.pipelines.queries.dedup_q import _fold_label_sums

        ds, uniq, ecnt, esum = _mk_parts(n_rows=200, n_labels=13, blocks=20)
        _tree(monkeypatch, 8, 5)
        seen = _driver_rows(monkeypatch)
        labels, counts, sums = _fold_label_sums(ds)
        assert seen and max(seen) <= len(uniq)
        assert np.array_equal(labels, uniq)
        assert np.array_equal(counts, ecnt)
        assert np.array_equal(sums, esum)

    def test_small_path_skips_tree(self, monkeypatch):
        from schema_guru_ray.pipelines.queries.dedup_q import _fold_label_sums

        ds, uniq, ecnt, esum = _mk_parts(n_rows=50, n_labels=6, blocks=4)
        _tree(monkeypatch, 256, 8)
        seen = _driver_rows(monkeypatch)
        labels, counts, sums = _fold_label_sums(ds)
        assert seen == [50]  # under the limit: plain driver fold, no shuffle
        assert np.array_equal(labels, uniq)
        assert np.array_equal(counts, ecnt)
        assert np.array_equal(sums, esum)

    def test_e2e_tiny_batches_match_default(self, sf_dir, monkeypatch):
        """Forcing many tiny pass-1 blocks (batch_size=16 → ~32 partial
        blocks at 500 rows) must route through the tree, bound the
        driver fold, and produce the identical confusion matrix."""
        from schema_guru_ray.pipelines.queries.dedup_q import (
            label_centroid_confusion,
        )

        a = label_centroid_confusion(sf_dir).to_pandas()
        _tree(monkeypatch, 4, 8)
        seen = _driver_rows(monkeypatch)
        b = label_centroid_confusion(sf_dir, _batch_size=16).to_pandas()
        assert seen and max(seen) <= a["label"].nunique()
        key = ["label", "assigned_label"]
        a = a.sort_values(key).reset_index(drop=True)
        b = b.sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
