"""Degenerate-CLIPS robustness: the flagship validation / curation /
augmentation surface must SURVIVE the table shapes a 10^12-row deployment
actually produces — empty shards, truncated shards, a broken upstream field
(one column 100% NULL), zero-length payloads, corrupt payloads.

The round-5 session-4 sweep (every clips-consuming pipeline entry × 10
shapes) found 48 crashes in exactly the same classes the text-side sweep
had: Ray erases schema on empty derived data (curate chain died on
``schema().names``), driver folds index columns that never materialized
(``codec_verdicts`` KeyError on sort_values, ``cmvn_stats`` KeyError 's'),
row kernels assumed non-null metadata (``abs(ms - None)`` TypeError,
``md5(None.encode())``), and ``np.unique`` over a None-bearing codec array
raised TypeError inside the per-codec aggregate.

Contract (mirrors the SQL-null semantics of tests/test_degenerate.py):

* a shape may yield zero rows / all-violation verdicts, never a stacktrace;
* NULL metadata becomes a NAMED violation (``null_dur_ms``,
  ``null_clip_id``, ``codec_out_of_range``, ``sr_out_of_range``) — a null
  field is an observation about the data, not an engine error;
* NULL codec aggregates as ONE group (SQL GROUP BY) and comes back as a
  None codec key in the per-codec verdict table;
* augmentation kernels seed deterministically from "" when clip_id is NULL;
* empty/all-invalid inputs flow through checkpointed jobs as typed empty
  results with committed zero-row checkpoints (resume still works).
"""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _base_table(n=48) -> pa.Table:
    from schema_guru_ray.sources.clips import CLIPS_SCHEMA, ClipsConfig, generate_rows

    cols = generate_rows(np.arange(n), ClipsConfig())
    return pa.Table.from_pydict(
        {k: cols[k] for k in CLIPS_SCHEMA.names}, schema=CLIPS_SCHEMA
    )


def _with(tab: pa.Table, **repl) -> pa.Table:
    from schema_guru_ray.sources.clips import CLIPS_SCHEMA

    d = {name: tab[name] for name in tab.schema.names}
    for k, v in repl.items():
        d[k] = pa.array(v, CLIPS_SCHEMA.field(k).type)
    return pa.Table.from_pydict(d, schema=CLIPS_SCHEMA)


@pytest.fixture(scope="session")
def clip_shapes(ray_session, tmp_path_factory):
    from schema_guru_ray.sources.clips import CLIPS_SCHEMA

    base = _base_table()
    n = base.num_rows
    nulls = [None] * n
    shapes = {
        "empty": base.slice(0, 0),
        "tiny3": base.slice(0, 3),
        "null_bytes": _with(base, bytes=nulls),
        "null_transcript": _with(base, transcript=nulls),
        "null_meta": _with(base, sr_hz=nulls, dur_ms=nulls),
        "null_codec": _with(base, codec=nulls),
        "null_id": _with(base, clip_id=nulls),
        "all_null": pa.Table.from_pydict(
            {k: pa.array(nulls, CLIPS_SCHEMA.field(k).type)
             for k in CLIPS_SCHEMA.names},
            schema=CLIPS_SCHEMA,
        ),
        "zerolen_bytes": _with(base, bytes=[b""] * n),
        "garbage_bytes": _with(
            base, bytes=[bytes([i % 251] * 64) for i in range(n)]
        ),
    }
    root = tmp_path_factory.mktemp("degclips")
    out = {}
    for name, tab in shapes.items():
        d = str(root / name)
        os.makedirs(d, exist_ok=True)
        pq.write_table(tab, os.path.join(d, "part-0.parquet"))
        out[name] = d
    return out


ALL_SHAPES = [
    "empty", "tiny3", "null_bytes", "null_transcript", "null_meta",
    "null_codec", "null_id", "all_null", "zerolen_bytes", "garbage_bytes",
]
# the shapes that exercised every distinct crash class in the sweep — the
# heavier chain entries run on these instead of the full matrix
CORE_SHAPES = ["empty", "null_meta", "null_id", "null_bytes"]


def _consume(x):
    import pandas as pd

    if isinstance(x, pd.DataFrame):
        return len(x)
    if isinstance(x, tuple):
        return tuple(_consume(i) for i in x)
    if hasattr(x, "take_all"):
        return len(x.take_all())
    return x


# ---- validator family: full shape matrix -----------------------------------


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_validate_violations_dupids(clip_shapes, shape):
    from schema_guru_ray.pipelines.validate import (
        ValidationConfig, duplicate_clip_ids, validate_clips,
        violations_dataset,
    )
    from schema_guru_ray.sources.clips import read_clips

    cfg = ValidationConfig()
    ds = read_clips(clip_shapes[shape])
    n_in = pq.read_table(
        os.path.join(clip_shapes[shape], "part-0.parquet")
    ).num_rows
    verdicts = validate_clips(ds, cfg).materialize()
    assert verdicts.count() == n_in  # validation is 1:1, never row-dropping
    rows = violations_dataset(verdicts).take_all()
    if shape in ("null_bytes", "zerolen_bytes", "garbage_bytes", "all_null"):
        kinds = {r["kind"] for r in rows}
        assert "undecodable_audio" in kinds
    if shape == "null_meta":
        kinds = {r["kind"] for r in rows}
        assert {"null_dur_ms", "sr_out_of_range"} <= kinds
    if shape == "null_id":
        assert "null_clip_id" in {r["kind"] for r in rows}
    if shape == "null_codec":
        assert "codec_out_of_range" in {r["kind"] for r in rows}
    _consume(duplicate_clip_ids(verdicts))


@pytest.mark.parametrize("shape", ALL_SHAPES)
def test_codec_verdicts_shapes(clip_shapes, shape):
    from schema_guru_ray.pipelines.validate import (
        ValidationConfig, codec_verdicts, validate_clips,
    )
    from schema_guru_ray.sources.clips import read_clips

    cfg = ValidationConfig()
    verdicts = validate_clips(read_clips(clip_shapes[shape]), cfg).materialize()
    cv = codec_verdicts(verdicts, cfg)
    # typed column contract survives every shape, including fully empty
    for col in ("codec", "n_clips", "n_ok", "violation_rate", "passed"):
        assert col in cv.columns
    if shape == "empty":
        assert len(cv) == 0
    elif shape in ("null_codec", "all_null"):
        # NULL codec is ONE group (SQL GROUP BY), surfaced as a None key
        assert len(cv) == 1 and cv["codec"].iloc[0] is None
    else:
        assert int(cv["n_clips"].sum()) == (3 if shape == "tiny3" else 48)


def test_codec_verdicts_drift_degenerate(clip_shapes):
    """Drift scoring vs a healthy baseline must survive a degenerate
    current shard: all-null durations mean there is no current distribution
    — no psi columns, no crash, and the verdict still renders."""
    from schema_guru_ray.pipelines.validate import (
        ValidationConfig, build_baseline, codec_verdicts, validate_clips,
    )
    from schema_guru_ray.sources.clips import read_clips

    cfg = ValidationConfig()
    healthy = validate_clips(read_clips(clip_shapes["tiny3"]), cfg).materialize()
    baseline = build_baseline(healthy, cfg)
    for shape in ("empty", "null_meta", "null_codec", "all_null"):
        cur = validate_clips(read_clips(clip_shapes[shape]), cfg).materialize()
        cv = codec_verdicts(cur, cfg, baseline=baseline)
        assert "passed" in cv.columns
    # and a degenerate BASELINE must not poison scoring of a healthy shard
    deg_base = build_baseline(
        validate_clips(read_clips(clip_shapes["all_null"]), cfg).materialize(), cfg
    )
    cv = codec_verdicts(healthy, cfg, baseline=deg_base)
    assert "passed" in cv.columns


def test_checkpointed_validation_empty(clip_shapes, tmp_path):
    from schema_guru_ray.pipelines.validate import (
        ValidationConfig, run_validation_checkpointed,
    )

    for shape in ("empty", "null_meta"):
        out = str(tmp_path / f"ckpt_{shape}")
        m = run_validation_checkpointed(
            clip_shapes[shape], out, ValidationConfig(), num_partitions=2
        )
        assert m["ran"] + m["skipped"] >= 1


# ---- curation chain ---------------------------------------------------------


@pytest.mark.parametrize("shape", CORE_SHAPES + ["garbage_bytes"])
def test_curate_clips_degenerate(clip_shapes, shape):
    from schema_guru_ray.pipelines.curate_clips import curate_clips
    from schema_guru_ray.sources.clips import CLIPS_SCHEMA, read_clips

    curated, summary = curate_clips(read_clips(clip_shapes[shape]))
    assert list(summary["stage"]) == [
        "input", "valid", "exact_dedup", "near_dup", "curated"
    ]
    if shape != "tiny3":
        # all-invalid shapes: typed empty output, zero counts, real schema
        assert summary["n"].iloc[-1] == 0
        assert curated.schema() is not None
        assert set(CLIPS_SCHEMA.names) <= set(curated.schema().names)


@pytest.mark.parametrize("shape", ["empty", "null_bytes"])
def test_curate_checkpointed_degenerate(clip_shapes, shape, tmp_path):
    from schema_guru_ray.pipelines.curate_clips import curate_clips_checkpointed

    files = sorted(glob.glob(os.path.join(clip_shapes[shape], "*.parquet")))
    out = str(tmp_path / f"cc_{shape}")
    res = curate_clips_checkpointed(files, out)
    assert res["result"].count() == 0
    assert set(res["manifest"]) == {"valid", "dedup", "drops", "final"}
    # resume over the zero-row checkpoints is a pure skip
    shutil.rmtree(out + "_second", ignore_errors=True)
    res2 = curate_clips_checkpointed(files, out)
    assert res2["result"].count() == 0
    assert res2["manifest"]["valid"]["skipped"] >= 1


# ---- feature / augmentation stages ------------------------------------------


@pytest.mark.parametrize("shape", CORE_SHAPES)
def test_feature_prep_degenerate(clip_shapes, shape):
    from schema_guru_ray.sources.clips import read_clips
    from schema_guru_ray.stages.audio_features import (
        FEATURE_DIM, SpecAugmentFeaturizer, apply_cmvn, cmvn_stats,
    )
    from schema_guru_ray.stages.warm import warm_kernel

    feats = (
        read_clips(clip_shapes[shape])
        .map_batches(warm_kernel(SpecAugmentFeaturizer),
                     batch_format="pyarrow", batch_size=256)
        .map_batches(lambda t: t.filter(t["decodable"]), batch_format="pyarrow")
        .materialize()
    )
    mean, std = cmvn_stats(feats)
    assert mean.shape == (FEATURE_DIM,) and std.shape == (FEATURE_DIM,)
    if feats.count() == 0:
        # identity statistics on a fully-undecodable shard
        assert not mean.any() and (std == 1.0).all()
    _consume(apply_cmvn(feats, mean, std))


@pytest.mark.parametrize("shape", ["null_id", "null_meta", "all_null"])
def test_augment_kernels_degenerate(clip_shapes, shape):
    from schema_guru_ray.sources.clips import read_clips
    from schema_guru_ray.stages.audio_transform import (
        mix_noise_clips, perturb_window_clips, speed_perturb_clips,
    )

    ds = read_clips(clip_shapes[shape])
    noised = mix_noise_clips(ds).take_all()
    perturbed = speed_perturb_clips(ds).take_all()
    _consume(perturb_window_clips(read_clips(clip_shapes[shape])))
    if shape in ("null_id", "null_meta"):
        # audio is decodable: augmentation still produces rows, with the
        # NULL id seeded/suffixed as ""
        assert len(noised) == 48 and len(perturbed) == 96
        if shape == "null_id":
            assert all(r["clip_id"].startswith("#") for r in noised)
    else:
        assert noised == [] and perturbed == []
