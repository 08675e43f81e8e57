"""fold_keyed: the driver and tree regimes give the same fold for keyed,
unkeyed, empty, null-key and hot-key inputs; in the tree regime the driver
combines at most one row per key, and the shuffled blocks are Arrow.
map_items: the driver regime is one call with no Ray Data execution, the
tasks regime runs FANIN-item batches, and a task failure is a ValueError."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from schema_guru_ray import fold


def _combine_sums(key, calls=None):
    """Sum ``n`` and the int64 vector in ``v`` per key; ``calls`` records
    the row and key counts of every call made in this process."""

    def combine(frame: pd.DataFrame) -> pd.DataFrame:
        if calls is not None:
            calls.append((len(frame),
                          frame[key].drop_duplicates().shape[0] if key else 1))
        if key:
            groups = frame.groupby(key, sort=False, dropna=False)
        else:
            groups = [((), frame)]
        rows = []
        for k, g in groups:
            v = np.sum([np.frombuffer(b, np.int64) for b in g["v"]], axis=0)
            row = dict(zip(key, k if isinstance(k, tuple) else (k,)))
            row.update(n=int(g["n"].sum()), v=v.astype(np.int64).tobytes())
            rows.append(row)
        return pd.DataFrame(rows, columns=[*key, "n", "v"])

    return combine


def _parts(keys, blocks=24):
    import ray.data as rd

    rng = np.random.RandomState(3)
    n = rng.randint(1, 50, len(keys)).astype(np.int64)
    V = rng.randint(-1000, 1000, (len(keys), 3)).astype(np.int64)
    t = pa.table({
        "k": pa.array(keys, pa.string()),
        "n": pa.array(n, pa.int64()),
        "v": pa.array([r.tobytes() for r in V], pa.binary()),
    })
    return rd.from_arrow(t).repartition(blocks)


def _canon(df, key):
    if df.empty:
        return {}
    return {
        tuple(None if pd.isna(r[c]) else r[c] for c in key):
            (int(r["n"]), np.frombuffer(r["v"], np.int64).tolist())
        for _, r in df.iterrows()
    }


def _both_regimes(monkeypatch, parts, key, combine):
    monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", 10**9)
    driver = fold.fold_keyed(parts, key, combine)
    monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", 0)
    monkeypatch.setattr(fold, "FANIN", 4)
    tree = fold.fold_keyed(parts, key, combine)
    return driver, tree


def _expected(parts, key):
    """Row-by-row reference fold, independent of any combine."""
    df = parts.to_pandas()
    out = {}
    for i, r in df.iterrows():
        k = tuple(None if pd.isna(r[c]) else r[c] for c in key)
        n, v = out.get(k, (0, np.zeros(3, np.int64)))
        out[k] = (n + int(r["n"]), v + np.frombuffer(r["v"], np.int64))
    return {k: (n, v.tolist()) for k, (n, v) in out.items()}


# more rows than one map-side batch (4096), so each key reaches its shard
# from several batches
N = 9000
KEYS = [f"c{i % 7}" for i in range(N)]


@pytest.mark.usefixtures("ray_session")
class TestFoldKeyed:
    def test_keyed_regimes_agree(self, monkeypatch):
        parts = _parts(KEYS)
        driver, tree = _both_regimes(monkeypatch, parts, ["k"], _combine_sums(["k"]))
        assert _canon(driver, ["k"]) == _canon(tree, ["k"]) == _expected(parts, ["k"])
        assert len(tree) == 7

    def test_unkeyed_regimes_agree(self, monkeypatch):
        parts = _parts(KEYS)
        combine = _combine_sums([])
        driver, tree = _both_regimes(monkeypatch, parts.drop_columns(["k"]), [], combine)
        assert len(driver) == len(tree) == 1
        assert _canon(driver, []) == _canon(tree, []) == _expected(parts, [])

    def test_empty_input(self, monkeypatch):
        import ray.data as rd

        empty = _parts(KEYS).filter(lambda r: False)
        for parts in (empty, rd.from_items([])):
            driver, tree = _both_regimes(monkeypatch, parts, ["k"], _combine_sums(["k"]))
            assert driver.empty and tree.empty

    def test_null_key_is_its_own_group(self, monkeypatch):
        keys = [None if i % 5 == 0 else f"c{i % 3}" for i in range(N)]
        parts = _parts(keys)
        driver, tree = _both_regimes(monkeypatch, parts, ["k"], _combine_sums(["k"]))
        assert _canon(driver, ["k"]) == _canon(tree, ["k"]) == _expected(parts, ["k"])
        assert (None,) in _canon(tree, ["k"])
        assert len(tree) == 4

    def test_hot_key(self, monkeypatch):
        keys = ["hot"] * N
        parts = _parts(keys)
        driver, tree = _both_regimes(monkeypatch, parts, ["k"], _combine_sums(["k"]))
        assert _canon(driver, ["k"]) == _canon(tree, ["k"]) == _expected(parts, ["k"])
        assert len(tree) == 1

    def test_tree_driver_combines_one_row_per_key(self, monkeypatch):
        """Workers run the map-side and per-shard combines on copies of
        the closure, so ``calls`` only sees the driver's calls."""
        calls = []
        monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", 0)
        monkeypatch.setattr(fold, "FANIN", 4)
        out = fold.fold_keyed(_parts(KEYS), ["k"], _combine_sums(["k"], calls))
        assert len(out) == 7
        assert calls and all(rows == keys for rows, keys in calls)

    def test_shuffled_blocks_are_arrow(self, monkeypatch):
        import ray
        import ray.data as rd

        grouped = []
        real_groupby = rd.Dataset.groupby

        def spy(self, *a, **kw):
            grouped.append(self)
            return real_groupby(self, *a, **kw)

        monkeypatch.setattr(rd.Dataset, "groupby", spy)
        monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", 0)
        fold.fold_keyed(_parts(KEYS), ["k"], _combine_sums(["k"]))
        assert len(grouped) == 1
        blocks = grouped[0].materialize().get_internal_block_refs()
        assert blocks and all(isinstance(ray.get(b), pa.Table) for b in blocks)


def _batch_frame():
    """An fn for map_items: one row per item with its batch's size (a
    closure, so Ray workers get it by value)."""

    def frame(items: list) -> pd.DataFrame:
        return pd.DataFrame({"item": pd.Series(items, dtype=object),
                             "batch": pd.Series([len(items)] * len(items), dtype="int64")})

    return frame


def test_map_items_driver_regime_runs_no_ray_data(monkeypatch):
    """Up to DRIVER_FOLD_ROWS items, fn runs once on the driver over all
    of them and no Ray Data plan is built."""
    import ray.data as rd

    def no_ray_data(*a, **kw):
        raise AssertionError("the driver regime built a Ray Data plan")

    monkeypatch.setattr(rd, "from_items", no_ray_data)
    items = [f"dir{i}" for i in range(fold.DRIVER_FOLD_ROWS)]
    calls = []
    out = fold.map_items(items, lambda xs: calls.append(xs) or _batch_frame()(xs))
    assert calls == [items]
    assert out["item"].tolist() == items


@pytest.mark.usefixtures("ray_session")
def test_map_items_tasks_regime_runs_fanin_batches(monkeypatch):
    items = [f"dir{i}" for i in range(10)]
    monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", 0)
    monkeypatch.setattr(fold, "FANIN", 4)
    out = fold.map_items(items, _batch_frame())
    assert sorted(out["item"]) == items
    assert out["batch"].max() <= 4 and out["batch"].nunique() > 1


@pytest.mark.usefixtures("ray_session")
def test_map_items_task_failure_is_value_error(monkeypatch):
    """A typed error raised by fn stays typed on the driver; raised inside
    a Ray task, it reaches the caller as ValueError."""
    def fail(items):
        raise KeyError("no sketches key")

    with pytest.raises(KeyError):
        fold.map_items(["a", "b"], fail)
    monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", 0)
    with pytest.raises(ValueError, match="no sketches key"):
        fold.map_items(["a", "b"], fail)


def test_fold_policy_lives_only_in_fold_module():
    """No module but fold.py carries a fold knob or threshold or builds a
    driver-known item fan-out (``from_items``), so the driver-or-tree
    topology is not copied again, and the codec salt the per-block
    combiner made redundant stays gone. The one exception is validate's
    DRIVER_FOLD_PARTIALS re-export."""
    import pathlib
    import re

    pkg = pathlib.Path(fold.__file__).parent
    banned = re.compile(
        r"driver_fold_limit|tree_fanin|\bfanin\b|\bDRIVER_FOLD_\w*\s*=(?!=)"
        r"|\bn_salts\b|driver_limit|DRIVER_SKETCH_DIRS|driver_pair_limit"
        r"|from_items\(")
    allowed = {("pipelines/validate.py", "DRIVER_FOLD_PARTIALS = DRIVER_FOLD_ROWS")}
    hits = []
    for path in sorted(pkg.rglob("*.py")):
        rel = path.relative_to(pkg).as_posix()
        if rel == "fold.py":
            continue
        for no, line in enumerate(path.read_text().splitlines(), 1):
            if banned.search(line) and (rel, line.strip()) not in allowed:
                hits.append(f"{rel}:{no}: {line.strip()}")
    assert not hits, "\n".join(hits)
