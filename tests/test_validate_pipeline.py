"""Flagship validation pipeline integration: actor-pool validator over a
Ray Dataset, violation parity with generator ground truth, duplicate
detection, per-codec verdicts, drift, and checkpoint/resume."""

import glob
import json
import os

import pytest

from schema_guru_ray.sources.clips import ClipsConfig, generate_clips_table
from schema_guru_ray.pipelines.validate import (
    ValidationConfig,
    build_baseline,
    codec_verdicts,
    duplicate_clip_ids,
    run_validation_checkpointed,
    validate_clips,
    violations_dataset,
)

CFG = ClipsConfig(
    rate_dup=0.02, rate_corrupt=0.02, rate_ref_transcript_on_bad=0.01,
    rate_ref_null_on_good=0.01, rate_snr=0.02, rate_transcript_mismatch=0.02,
    rate_sr_invalid=0.01, rate_dur_mismatch=0.02,
)
VCFG = ValidationConfig(validator_concurrency=2)


@pytest.fixture(scope="module")
def verdicts(ray_session):
    import ray.data as rd

    tab = generate_clips_table(800, CFG)
    return validate_clips(rd.from_arrow(tab), VCFG).materialize()


@pytest.fixture(scope="module")
def labels():
    _, lab = generate_clips_table(800, CFG, with_labels=True)
    return lab


class TestValidatePipeline:
    def test_violation_parity(self, verdicts, labels):
        from collections import Counter

        expected = Counter(
            k for ls in labels for k in ls if k != "duplicate_clip_id"
        )
        viol = violations_dataset(verdicts).to_pandas()
        assert Counter(viol["kind"]) == expected

    def test_duplicates_detected(self, verdicts, labels):
        dups = duplicate_clip_ids(verdicts).to_pandas()
        n_dup_rows = sum(1 for ls in labels if "duplicate_clip_id" in ls)
        assert n_dup_rows > 0
        # every duplicated id appears; copies may collapse to one group
        assert 0 < len(dups) <= n_dup_rows
        assert (dups["n_copies"] > 1).all()

    def test_codec_verdicts(self, verdicts):
        cv = codec_verdicts(verdicts, VCFG)
        assert set(cv["codec"]) <= {"pcm_s16le", "flac", "opus", "mp3"}
        assert cv["n_clips"].sum() == 800
        # injected violation rate ~10% > 2% threshold → all codecs fail
        assert not cv["passed"].any()
        assert (cv["n_ok"] <= cv["n_clips"]).all()

    def test_codec_counts_match_pandas_groupby(self, verdicts, monkeypatch):
        """Per-codec counts equal a pandas groupby over the same verdicts,
        for lazy and materialized input and in both fold regimes."""
        import ray.data as rd

        from schema_guru_ray import fold

        frame = verdicts.to_pandas()
        assert frame["codec"].notna().all()
        want = (
            frame.assign(n_violations=frame["violations"].map(len))
            .groupby("codec")
            .agg(n_clips=("ok", "size"), n_ok=("ok", "sum"),
                 n_violations=("n_violations", "sum"))
            .to_dict()
        )
        lazy = rd.from_arrow_refs(verdicts.to_arrow_refs()).map_batches(
            lambda t: t, batch_format="pyarrow")

        def counts(ds):
            got = codec_verdicts(ds, VCFG).set_index("codec")
            return got[["n_clips", "n_ok", "n_violations"]].to_dict()

        assert counts(lazy) == want
        assert counts(verdicts) == want
        monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", 0)  # the tree regime
        assert counts(verdicts) == want

    def test_actor_pool_mode_equivalent(self, ray_session):
        import ray.data as rd

        tab = generate_clips_table(200, CFG)
        a = validate_clips(
            rd.from_arrow(tab), ValidationConfig(validator_mode="tasks")
        ).to_pandas()
        b = validate_clips(
            rd.from_arrow(tab),
            ValidationConfig(validator_mode="actors", validator_concurrency=2),
        ).to_pandas()
        a = a.sort_values("clip_id").reset_index(drop=True)
        b = b.sort_values("clip_id").reset_index(drop=True)
        assert a.drop(columns=["snr_db"]).equals(b.drop(columns=["snr_db"]))

    def test_drift_self_is_zero(self, verdicts):
        base = build_baseline(verdicts, VCFG)
        cv = codec_verdicts(verdicts, VCFG, baseline=base)
        assert (cv["psi_dur_ms"].abs() < 1e-9).all()
        assert (cv["ks_dur_ms"].abs() < 1e-9).all()

    def test_drift_detects_shift(self, verdicts, ray_session):
        import ray.data as rd

        base = build_baseline(verdicts, VCFG)
        shifted_cfg = ClipsConfig(
            median_dur_ms=600.0,  # 4x the baseline median duration
            rate_dup=0, rate_corrupt=0, rate_ref_transcript_on_bad=0,
            rate_ref_null_on_good=0, rate_snr=0, rate_transcript_mismatch=0,
            rate_sr_invalid=0, rate_dur_mismatch=0, seed=43,
        )
        shifted = validate_clips(rd.from_arrow(generate_clips_table(400, shifted_cfg)), VCFG)
        cv = codec_verdicts(shifted, VCFG, baseline=base)
        assert (cv["psi_dur_ms"] > 0.25).any()
        assert not cv["passed"].all()


class TestCheckpointResume:
    def test_resume_skips_finished(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        clips_dir = str(tmp_path / "clips")
        os.makedirs(clips_dir)
        tab = generate_clips_table(300, CFG)
        # three input files → three partitions
        for i in range(3):
            pq.write_table(tab.slice(i * 100, 100), f"{clips_dir}/part-{i}.parquet")
        out_dir = str(tmp_path / "out")
        s1 = run_validation_checkpointed(clips_dir, out_dir, VCFG, num_partitions=3)
        assert s1["ran"] == 3 and s1["skipped"] == 0
        assert len(glob.glob(f"{out_dir}/partition=*/verdicts/*.parquet")) >= 3
        assert len(glob.glob(f"{out_dir}/partition=*/_SUCCESS.json")) == 3
        # resume: everything checkpointed
        s2 = run_validation_checkpointed(clips_dir, out_dir, VCFG, num_partitions=3)
        assert s2["ran"] == 0 and s2["skipped"] == 3
        # config change invalidates checkpoints
        s3 = run_validation_checkpointed(
            clips_dir, out_dir, ValidationConfig(snr_threshold_db=20.0, validator_concurrency=2),
            num_partitions=3,
        )
        assert s3["ran"] == 3
        # manifest carries lineage
        meta = json.load(open(glob.glob(f"{out_dir}/partition=*/_SUCCESS.json")[0]))
        assert meta["inputs"] and meta["config_hash"] and "metrics" in meta


@pytest.mark.usefixtures("ray_session")
def test_codec_verdicts_driver_fold_matches_distributed(monkeypatch, tmp_path):
    """The small-partition driver-fold fast path of codec_verdicts must
    answer exactly like the distributed tree fold (below KLL
    compaction size the sketches are order-exact, so the frames are
    bit-equal)."""
    import pandas as pd
    import ray.data as rd

    from schema_guru_ray import fold
    from schema_guru_ray.pipelines import validate as V
    from schema_guru_ray.sources.clips import ClipsConfig, generate_clips_table

    cfg = V.ValidationConfig()
    verdicts = V.validate_clips(
        rd.from_arrow(generate_clips_table(500, ClipsConfig(seed=11))), cfg
    ).materialize()

    fast, fast_store = V.codec_verdicts(verdicts, cfg, return_store=True)
    monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", -1)  # force distributed
    dist, dist_store = V.codec_verdicts(verdicts, cfg, return_store=True)
    pd.testing.assert_frame_equal(fast, dist)
    # sketch BYTES differ by within-level concatenation order; the
    # retained value multiset (and so every quantile) must be identical
    import numpy as np

    from schema_guru_ray.sketches.kll import KLL

    assert set(fast_store) == set(dist_store)
    for codec in fast_store:
        for col in fast_store[codec]:
            a = KLL.from_bytes(fast_store[codec][col])
            b = KLL.from_bytes(dist_store[codec][col])
            assert a.n == b.n
            np.testing.assert_array_equal(
                np.sort(a.support()), np.sort(b.support()))
