"""Curate near-dup removal regimes: join_keyed's broadcast anti join and
its Bloom-split + exact bucketed membership shuffle must produce the
identical kept set (round-2 verdict: the unconditional driver broadcast is
O(corpus) on duplicate-heavy crawls; patching joins.BROADCAST_BYTES to 0
exercises the shuffle regime on real documents)."""

import pandas as pd
import pytest

from schema_guru_ray.pipelines.curate import curate_documents
from schema_guru_ray.stages import joins


def _assert_shuffled():
    assert joins.last_regime["op"] == "join_keyed"
    assert joins.last_regime["regime"] == "shuffle"
    assert joins.last_regime["small_bytes"] > 0


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values("doc_id").reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
def test_anti_join_regime_matches_broadcast(sf_dir, monkeypatch):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    base = _canon(curate_documents(ds.repartition(8)).to_pandas())
    monkeypatch.setattr(joins, "BROADCAST_BYTES", 0)
    forced = _canon(curate_documents(ds.repartition(8)).to_pandas())
    _assert_shuffled()
    assert len(base) > 0
    pd.testing.assert_frame_equal(base, forced)


@pytest.mark.usefixtures("ray_session")
def test_anti_join_regime_drops_near_dups(sf_dir, monkeypatch):
    """The scale regime must actually REMOVE near-dups: append an exact
    near-copy of an existing long document under a fresh high doc_id and
    check the chain never keeps both."""
    import ray.data as rd

    docs = pd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    long_docs = docs[docs["text"].str.split().str.len() >= 40]
    victim = long_docs.iloc[0]
    clone_id = int(docs["doc_id"].max()) + 1
    clone = pd.DataFrame({"doc_id": [clone_id], "text": [victim["text"] + " extra"]})
    ds = rd.from_pandas(pd.concat([docs, clone], ignore_index=True)).repartition(8)
    monkeypatch.setattr(joins, "BROADCAST_BYTES", 0)
    out = curate_documents(ds).to_pandas()
    _assert_shuffled()
    kept_ids = set(out["doc_id"])
    assert not ({int(victim["doc_id"]), clone_id} <= kept_ids)
