"""Degenerate-input robustness: every catalog query must SURVIVE tiny and
EMPTY tables.

At 10^12 rows some partition/shard-day WILL be empty (a filter that matched
nothing, a day with no data, a tenant with no docs) — and Ray Data loses
schema information on empty derived datasets (``ds.schema()`` → None, UDFs
never run on 0-row blocks, ``to_pandas()`` returns a bare 0-column frame).
Round-5 sweep found 37/100 catalog queries crashing on empty input and 7 on
a 3-row corpus (dangling FKs after truncation, empty intermediates). These
tests pin the hardening: a query may return zero rows, but it must not
raise, and pandas/Arrow results must keep their column contract.

The clips-family queries are excluded: their corpus is engine-generated
with a 100-clip floor (sources/clips.py:n_clips_for_sf), so by construction
they can never see an empty input table.
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]

# queries over the generated clips corpus (floored at 100 rows — cannot be
# empty) are skipped; everything else must survive both legs
_CLIPS_PREFIXES = ("clips_", "curate_clips", "prepare_audio")


FACTS = {"orders", "lineitem", "events", "documents", "embeddings"}


def _truncated_corpus(src_dir: str, dst_dir: str, n: int,
                      only: set | None = None) -> str:
    os.makedirs(dst_dir, exist_ok=True)
    for t in TABLES:
        tab = pq.read_table(os.path.join(src_dir, f"{t}.parquet"))
        rows = n if (only is None or t in only) else tab.num_rows
        pq.write_table(tab.slice(0, rows), os.path.join(dst_dir, f"{t}.parquet"))
    return dst_dir


@pytest.fixture(scope="session")
def tiny_dir(sf_dir, tmp_path_factory):
    return _truncated_corpus(
        sf_dir, str(tmp_path_factory.mktemp("degen") / "tiny"), 3
    )


@pytest.fixture(scope="session")
def empty_dir(sf_dir, tmp_path_factory):
    return _truncated_corpus(
        sf_dir, str(tmp_path_factory.mktemp("degen") / "empty"), 0
    )


@pytest.fixture(scope="session")
def facts_empty_dir(sf_dir, tmp_path_factory):
    """Fact tables empty, dimensions populated — the realistic empty
    shard-day (fact volume thins out; dimensions never do). Exercises
    joins and two-regime lookups in MIXED mode (one side empty, one not),
    which the all-empty leg can short-circuit past — this shape caught the
    np.where(hit, lut[i], 0) out-of-bounds on an empty broadcast lut."""
    return _truncated_corpus(
        sf_dir, str(tmp_path_factory.mktemp("degen") / "facts_empty"), 0,
        only=FACTS,
    )


@pytest.fixture(scope="session")
def null_heavy_dir(sf_dir, tmp_path_factory):
    """Every nullable non-key column 100% NULL — the broken-upstream-field
    shard. SQL semantics are the contract: aggregates ignore NULLs, null
    join keys/timestamps never match, null vectors have no position."""
    keep = {
        "o_orderkey", "o_custkey", "c_custkey", "c_nationkey", "n_nationkey",
        "n_regionkey", "r_regionkey", "s_suppkey", "s_nationkey", "p_partkey",
        "l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
        "event_id", "user_id", "ts", "doc_id", "vec_id",
    }
    dst = str(tmp_path_factory.mktemp("degen") / "nullheavy")
    os.makedirs(dst, exist_ok=True)
    for t in TABLES:
        tab = pq.read_table(os.path.join(sf_dir, f"{t}.parquet"))
        cols = {
            f.name: (tab[f.name] if f.name in keep
                     else pa.nulls(tab.num_rows, f.type))
            for f in tab.schema
        }
        pq.write_table(pa.table(cols), os.path.join(dst, f"{t}.parquet"))
    return dst


def _catalog():
    import __ray_entry__ as entry

    return {
        name: fn
        for name, fn in entry.queries().items()
        if not name.startswith(_CLIPS_PREFIXES)
    }


def _materialize(out) -> int:
    """Row count through the same boundary the driver uses."""
    if isinstance(out, pd.DataFrame):
        return len(out)
    if isinstance(out, pa.Table):
        return out.num_rows
    return out.count()


_NAMES = sorted(_catalog().keys())


@pytest.mark.parametrize("name", _NAMES)
def test_tiny_corpus(ray_session, tiny_dir, name):
    """3-row tables (with the dangling FKs truncation produces): every
    query completes; row counts are finite and non-negative."""
    fn = _catalog()[name]
    assert _materialize(fn(tiny_dir)) >= 0


@pytest.mark.parametrize("name", _NAMES)
def test_null_heavy_corpus(ray_session, null_heavy_dir, name):
    """All nullable value columns 100% NULL: every query completes with
    SQL null semantics (ignore in aggregates, never match in joins)."""
    fn = _catalog()[name]
    assert _materialize(fn(null_heavy_dir)) >= 0


@pytest.mark.parametrize("name", _NAMES)
def test_facts_empty_corpus(ray_session, facts_empty_dir, name):
    """Empty facts × populated dims: every query completes."""
    fn = _catalog()[name]
    assert _materialize(fn(facts_empty_dir)) >= 0


def test_export_job_empty(ray_session, empty_dir, tmp_path):
    """The resumable shuffled export commits (0-row) partition manifests on
    an empty corpus instead of crashing in the shard-count fold — resume
    must be able to tell 'done, nothing there' from 'never ran'."""
    from jobs.export_job import export_shuffled, read_shard

    out = str(tmp_path / "export")
    m = export_shuffled(
        [os.path.join(empty_dir, "documents.parquet")], out,
        files_per_partition=1, num_shards=4,
    )
    assert m["ran"] >= 1 and m["skipped"] == 0
    assert len(read_shard(out, 0)) == 0
    # resume skips every committed partition
    m2 = export_shuffled(
        [os.path.join(empty_dir, "documents.parquet")], out,
        files_per_partition=1, num_shards=4,
    )
    assert m2["ran"] == 0 and m2["skipped"] == m["ran"]


def test_curate_checkpointed_empty(ray_session, empty_dir, tmp_path):
    """The checkpointed curate chain floors each stage with a typed empty
    parquet (write_parquet emits NO files on empty data) so the next stage
    always has a readable input, and the final result stays typed."""
    from schema_guru_ray.pipelines.curate import curate_documents_checkpointed

    out = str(tmp_path / "curate")
    res = curate_documents_checkpointed(
        [os.path.join(empty_dir, "documents.parquet")], out, files_per_partition=1
    )
    assert res["result"].count() == 0
    assert set(res["result"].schema().names) == {"doc_id", "n_words"}
    res2 = curate_documents_checkpointed(
        [os.path.join(empty_dir, "documents.parquet")], out, files_per_partition=1
    )
    assert res2["result"].count() == 0
    assert all(s["ran"] == 0 for s in res2["manifest"].values())


@pytest.mark.parametrize("name", _NAMES)
def test_empty_corpus(ray_session, empty_dir, name):
    """Fully empty tables (the one-empty-shard-day case): every query
    completes; pandas results keep their column contract."""
    fn = _catalog()[name]
    out = fn(empty_dir)
    n = _materialize(out)
    assert n >= 0
    if isinstance(out, pd.DataFrame):
        # empty results must still be well-formed frames (columns may be
        # data-discovered, so only the type contract is asserted globally)
        assert out.index.size == n
