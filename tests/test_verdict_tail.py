"""The validation tail over coalesced verdicts: materialized verdicts reach
codec_verdicts, violations_dataset and duplicate_clip_ids in
ceil(rows / TAIL_ROWS) blocks, lazy verdicts pass through untouched, and
every tail output is the same either way."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from schema_guru_ray.pipelines import validate as V
from schema_guru_ray.stages.audio import VERDICT_SCHEMA


def _verdict_table(n: int, offset: int = 0) -> pa.Table:
    """Synthetic verdict rows: no audio, so a 12k-row set builds instantly."""
    idx = np.arange(offset, offset + n)
    return pa.Table.from_pydict(
        {
            "clip_id": [f"c{i:06d}" for i in idx],
            "codec": [("pcm_s16le", "flac", "opus")[i % 3] for i in idx],
            "sr_hz": pa.array(np.full(n, 16000), pa.int32()),
            "dur_ms": pa.array(100 + idx % 50, pa.int32()),
            "decodable": [True] * n,
            "snr_db": (40.0 + idx % 7).astype(np.float64),
            "ok": [bool(i % 5) for i in idx],
            "violations": [[] if i % 5 else ["snr_below_threshold"] for i in idx],
        },
        schema=VERDICT_SCHEMA,
    )


def _blocks(n_blocks: int, rows: int):
    import ray.data as rd

    return rd.from_arrow([_verdict_table(rows, b * rows) for b in range(n_blocks)])


@pytest.mark.usefixtures("ray_session")
class TestCoalesced:
    def test_materialized_batches_join_to_tail_blocks(self):
        ds = _blocks(24, 512)
        k = math.ceil(24 * 512 / V.TAIL_ROWS)
        assert ds.num_blocks() == 24 and k == 3
        out = V._coalesced(ds).materialize()
        assert out.num_blocks() == k
        # adjacent blocks joined, no shuffle: row order is kept
        assert out.to_pandas()["clip_id"].equals(ds.to_pandas()["clip_id"])
        assert V.violations_dataset(ds).materialize().num_blocks() == k

    def test_materialized_at_or_below_target_is_returned(self):
        ds = _blocks(2, V.TAIL_ROWS)
        assert V._coalesced(ds) is ds
        one = _blocks(1, 100)
        assert V._coalesced(one) is one

    def test_lazy_input_is_returned(self):
        ds = _blocks(24, 512).map_batches(lambda t: t, batch_format="pyarrow")
        assert V._coalesced(ds) is ds


def _tail(verdicts):
    cv = V.codec_verdicts(verdicts)
    viol = V.violations_dataset(verdicts).to_pandas()
    dups = V.duplicate_clip_ids(verdicts).to_pandas()
    return cv, viol, dups


@pytest.mark.usefixtures("ray_session")
def test_tail_outputs_match_for_lazy_and_materialized_input():
    """A null-codec clip and a duplicated id included; the materialized
    verdict blocks coalesce to one."""
    import ray.data as rd

    from schema_guru_ray.sources.clips import ClipsConfig, generate_clips_table

    tab = generate_clips_table(1200, ClipsConfig(rate_dup=0.02, rate_snr=0.05, seed=7))
    codecs = tab["codec"].to_pylist()
    codecs[3] = None
    ids = tab["clip_id"].to_pylist()
    ids[10] = ids[11]
    tab = tab.set_column(tab.schema.get_field_index("codec"), "codec",
                         pa.array(codecs, pa.string()))
    tab = tab.set_column(tab.schema.get_field_index("clip_id"), "clip_id",
                         pa.array(ids, pa.string()))
    clips = rd.from_arrow([tab.slice(i * 200, 200) for i in range(6)])

    lazy = V.validate_clips(clips)
    materialized = V.validate_clips(clips).materialize()
    assert materialized.num_blocks() > 1 and V._coalesced(lazy) is lazy

    cv_l, viol_l, dups_l = _tail(lazy)
    cv_m, viol_m, dups_m = _tail(materialized)

    cols = ["codec", "n_clips", "n_ok", "n_violations", "violations_by_kind"]
    assert cv_l["codec"].isna().sum() == 1
    pd.testing.assert_frame_equal(cv_l[cols], cv_m[cols])

    def multiset(v):
        return Counter(zip(v["clip_id"], v["codec"].fillna("<null>"), v["kind"]))

    assert len(viol_l) > 0 and multiset(viol_l) == multiset(viol_m)
    copies_l = dict(zip(dups_l["clip_id"], dups_l["n_copies"]))
    assert copies_l[ids[11]] >= 2
    assert copies_l == dict(zip(dups_m["clip_id"], dups_m["n_copies"]))


@pytest.mark.usefixtures("ray_session")
def test_zero_row_materialized_input():
    import ray.data as rd

    empty = rd.from_arrow([_verdict_table(0), _verdict_table(0)])
    assert empty.count() == 0
    cv, viol, dups = _tail(empty)
    assert len(cv) == 0
    assert cv.dtypes.to_dict() == pd.Series(V._VERDICT_DTYPES).to_dict()
    assert len(viol) == 0 and len(dups) == 0
