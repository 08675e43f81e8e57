"""Audio-clips (validation, profile, features, windows, dedup) queries — part of the catalog backing __ray_entry__.queries().

Split from the former single-file ``pipelines/queries.py`` (round 4); see
the package ``__init__`` for the full QUERIES/ORACLES catalog contract.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from schema_guru_ray.context import SchemaContext
from schema_guru_ray.stages.warm import warm_kernel
from schema_guru_ray.pipelines.queries._common import (
    _int_units,
    _meta_rows,
    _pa,
    _read,
)



# --- clips flagship (rows-only: engine-generated input) ---------------------


def clips_codec_verdicts(sf_dir: str):
    """Flagship: validate the deterministic clips corpus for this scale
    factor; per-codec pass/fail verdict rows."""
    import ray.data as rd

    from schema_guru_ray.pipelines.validate import (
        ValidationConfig,
        codec_verdicts,
        validate_clips,
    )
    from schema_guru_ray.sources.clips import ensure_clips, read_clips

    path = ensure_clips(sf_dir)
    ds = read_clips(path)
    cfg = ValidationConfig()
    cv = codec_verdicts(validate_clips(ds, cfg), cfg)
    cv["violations_by_kind"] = cv["violations_by_kind"].map(
        lambda d: json.dumps(d, sort_keys=True)
    )
    return cv


def clips_violations(sf_dir: str):
    import ray.data as rd

    from schema_guru_ray.pipelines.validate import ValidationConfig, validate_clips, violations_dataset
    from schema_guru_ray.sources.clips import ensure_clips, read_clips

    path = ensure_clips(sf_dir)
    return violations_dataset(validate_clips(read_clips(path), ValidationConfig()))


def clips_duplicate_ids(sf_dir: str):
    import ray.data as rd

    from schema_guru_ray.pipelines.validate import ValidationConfig, duplicate_clip_ids, validate_clips
    from schema_guru_ray.sources.clips import ensure_clips, read_clips

    path = ensure_clips(sf_dir)
    return duplicate_clip_ids(validate_clips(read_clips(path), ValidationConfig()))


def clips_schema_infer(sf_dir: str):
    """Schema inference over the clips table itself — exercises the binary
    and product(null) extension states (rows-only)."""
    import ray.data as rd

    from schema_guru_ray.pipelines.infer import infer_schema
    from schema_guru_ray.sources.clips import ensure_clips, read_clips

    path = ensure_clips(sf_dir)
    res = infer_schema(read_clips(path), SchemaContext(enum_cardinality=8))
    return pd.DataFrame(
        {
            "schema_json": [json.dumps(res["schema"], sort_keys=True)],
            "n_rows": [res["n_rows"]],
            "n_errors": [res["n_errors"]],
        }
    )


def clips_profile(sf_dir: str):
    """Per-column profiles (exact stats + HLL distinct + KLL quantiles) over
    the clips table, grouped per codec (rows-only: sketch outputs)."""
    import ray.data as rd

    from schema_guru_ray.sources.clips import ensure_clips, read_clips
    from schema_guru_ray.stages.profile import TableProfiler, merge_profile_rows

    path = ensure_clips(sf_dir)
    cols = ["clip_id", "sr_hz", "dur_ms"]
    ds = rd.read_parquet(path, columns=cols + ["codec"])
    prof_ds = ds.map_batches(
        TableProfiler(cols, by="codec"), batch_format="pyarrow", batch_size=8192
    )

    def merge_group(g: pd.DataFrame) -> pd.DataFrame:
        profs = merge_profile_rows(list(g["profile"]))
        rows = []
        for c in cols:
            row = profs[c].to_row(c)
            row["codec"] = g["group"].iloc[0]
            rows.append(row)
        return pd.DataFrame(rows)

    return prof_ds.groupby("group").map_groups(merge_group, batch_format="pandas")


def clips_drift(sf_dir: str):
    """PSI/KS drift verdicts: baseline sketches from the corpus itself (self
    drift ≈ 0) plus a deliberately duration-shifted comparison corpus
    (PSI > 0.25 → failed verdict). Rows-only."""
    import ray.data as rd

    from schema_guru_ray.pipelines.validate import (
        ValidationConfig,
        build_baseline,
        codec_verdicts,
        validate_clips,
    )
    from schema_guru_ray.sources.clips import ClipsConfig, clips_dataset, ensure_clips, read_clips

    path = ensure_clips(sf_dir)
    cfg = ValidationConfig()
    # decode+SNR runs ONCE: the materialized verdicts feed both the
    # baseline build and the self-comparison
    verdicts = validate_clips(read_clips(path), cfg).materialize()
    baseline = build_baseline(verdicts, cfg)

    shifted_cfg = ClipsConfig(median_dur_ms=600.0, seed=43)
    shifted = validate_clips(clips_dataset(2000, shifted_cfg), cfg)
    self_cv = codec_verdicts(verdicts, cfg, baseline=baseline)
    shift_cv = codec_verdicts(shifted, cfg, baseline=baseline)
    self_cv["comparison"] = "self"
    shift_cv["comparison"] = "duration_shifted"
    out = pd.concat([self_cv, shift_cv], ignore_index=True)
    out["violations_by_kind"] = out["violations_by_kind"].map(
        lambda d: json.dumps(d, sort_keys=True)
    )
    return out


def clips_drift_localize(sf_dir: str):
    """Drift LOCALIZATION over an incremental checkpoint tree (rows-only,
    filesystem-state op): the corpus validates in content-addressed
    chunks, each committing its codec KLL sketches; a duration-shifted
    "overnight" shard is appended and ONLY its chunk re-validates; every
    chunk's sketches are then scored against the clean-corpus baseline.
    Returns the (partition, codec, col, n, psi, ks, drifted) report — the
    appended chunk flags, the originals stay clear — exercising the
    incremental runner + mergeable per-partition sketch store end to end
    (jobs/validate_job.py --files-per-partition/--drift-report surface)."""
    import glob
    import math
    import os
    import shutil

    import pyarrow.parquet as pq

    from schema_guru_ray.pipelines.validate import (
        ValidationConfig,
        drift_by_partition,
        merge_partition_baselines,
        run_validation_checkpointed,
    )
    from schema_guru_ray.sources.clips import (
        ClipsConfig,
        ensure_clips,
        generate_clips_table,
    )

    path = ensure_clips(sf_dir)
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    sf = os.path.basename(os.path.normpath(sf_dir))
    work = f"/tmp/graft_clips/drift_localize_{sf}"
    shutil.rmtree(work, ignore_errors=True)
    src = os.path.join(work, "src")
    out = os.path.join(work, "out")
    os.makedirs(src)
    for i, f in enumerate(files):  # symlinks: no corpus copy
        os.symlink(f, os.path.join(src, f"base-{i:04d}.parquet"))

    cfg = ValidationConfig()
    fpp = max(1, math.ceil(len(files) / 6))
    s1 = run_validation_checkpointed(src, out, cfg, files_per_partition=fpp)
    baseline, _ = merge_partition_baselines(out, active=s1["active"], cfg=cfg)

    # overnight append: one duration-shifted shard, sorts last
    shifted = generate_clips_table(2000, ClipsConfig(median_dur_ms=600.0, seed=43))
    pq.write_table(shifted, os.path.join(src, "zz-night.parquet"))
    s2 = run_validation_checkpointed(src, out, cfg, files_per_partition=fpp)

    report = drift_by_partition(out, baseline, cfg, active=s2["active"])
    shutil.rmtree(work, ignore_errors=True)
    return report


def clips_audio_features(sf_dir: str):
    """Real-DSP log-filterbank features per clip (rows-only)."""
    from schema_guru_ray.sources.clips import ensure_clips, read_clips
    from schema_guru_ray.stages.audio_features import audio_features

    path = ensure_clips(sf_dir)
    return audio_features(read_clips(path))


def clips_segments(sf_dir: str):
    """Energy-based voice-activity segmentation per clip: (clip_id,
    seg_idx, start_ms, end_ms, rms_db) rows from frame-RMS gating with
    gap-bridging hysteresis (rows-only; boundary ground truth is
    pytest-checked on synthesized tone/silence layouts)."""
    from schema_guru_ray.sources.clips import ensure_clips, read_clips
    from schema_guru_ray.stages.audio_transform import segment_clips

    path = ensure_clips(sf_dir)
    return segment_clips(read_clips(path))


def clips_windows(sf_dir: str):
    """Fixed-length training-window chunking (250 ms window / 100 ms hop)
    over every decodable clip: (clip_id, win_idx, start_ms, end_ms, rms_db)
    rows — the layout stage a speech-training pipeline runs before packing
    windows into shards. Per-window RMS is one cumulative-sum pass per clip
    (O(n) regardless of overlap); bytes stay inside the stage (rows-only;
    layout and RMS ground truth are pytest-checked on synthesized clips)."""
    from schema_guru_ray.sources.clips import ensure_clips, read_clips
    from schema_guru_ray.stages.audio_transform import window_clips

    path = ensure_clips(sf_dir)
    return window_clips(read_clips(path))


def clips_feature_prep(sf_dir: str):
    """Feature-space training prep over the clips corpus: SpecAugment-
    masked log-filterbank features (deterministic per clip_id — same clip,
    same masks, exact resume) → corpus CMVN gather (one sufficient-stat
    row per batch to the driver) → broadcast normalize → in-run
    verification that every feature dimension of the normalized corpus has
    mean 0 / std 1 (milli-units). Rows-only (engine-generated input);
    masking determinism, mean-fill, and CMVN exactness are
    pytest-checked."""
    from schema_guru_ray.sources.clips import ensure_clips, read_clips
    from schema_guru_ray.stages.audio_features import (
        SpecAugmentFeaturizer, apply_cmvn, cmvn_stats,
    )

    path = ensure_clips(sf_dir)
    feats = (
        read_clips(path)
        .map_batches(
            warm_kernel(SpecAugmentFeaturizer), batch_format="pyarrow",
            batch_size=256,
        )
        .map_batches(
            lambda t: t.filter(t["decodable"]), batch_format="pyarrow"
        )
        .materialize()  # tiny feature rows; the stats + apply passes both
        # read them, and the decode pool must not share a plan with them
    )
    mean, std = cmvn_stats(feats)
    normed = apply_cmvn(feats, mean, std)

    # verification gather reuses the SAME sufficient-stats fold, unclamped
    mu, sd = cmvn_stats(normed, clamp=False)
    return pd.DataFrame(
        {
            "dim": np.arange(len(mu), dtype="int64"),
            "mean_milli": np.rint(mu * 1000).astype("int64"),
            "std_milli": np.rint(sd * 1000).astype("int64"),
        }
    )


def clips_resample_stats(sf_dir: str):
    """Resample + RMS-normalize every clip to 16 kHz / -20 dBFS, then
    verify the transform's own invariants per codec over the TRANSFORMED
    table (which keeps the clips-table shape): every output sr is 16 kHz,
    duration drift vs the source metadata is < 2 ms, and achieved RMS is
    within 3 dB of target for non-clipping clips. A per-batch decode
    partial feeds a tiny codec groupby — bytes never shuffle (rows-only;
    resampler/normalizer unit properties are pytest-checked)."""
    import ray.data as rd
    from ray.data.aggregate import Max, Sum

    from schema_guru_ray.audio.wav import decode_wav
    from schema_guru_ray.sources.clips import ensure_clips, read_clips
    from schema_guru_ray.stages.audio_transform import resample_clips

    path = ensure_clips(sf_dir)
    resampled = resample_clips(read_clips(path), sr_out=16000)

    def partial(t: pa.Table) -> pd.DataFrame:
        rows = []
        for codec, buf, sr_col, dur_col in zip(
            t["codec"].to_pylist(), t["bytes"].to_pylist(),
            t["sr_hz"].to_pylist(), t["dur_ms"].to_pylist(),
        ):
            try:
                pcm, sr = decode_wav(buf)
            except Exception:
                rows.append((codec, 1, 0, 1, 0.0))
                continue
            x = pcm.astype(np.float64) / 32768.0
            rms = float(np.sqrt(np.square(x).mean())) if len(x) else 0.0
            rms_db = 20.0 * np.log10(max(rms, 1e-9))
            dur_drift = abs(round(len(pcm) / sr * 1000.0) - dur_col)
            rows.append((codec, 1, int(sr != 16000 or sr_col != 16000),
                         dur_drift, abs(rms_db - (-20.0))))
        df = pd.DataFrame(
            rows, columns=["codec", "n", "bad_sr", "dur_drift_ms", "rms_err_db"]
        )
        # Arrow out (the _pa rule): pandas blocks pay ~80 ms/block in the
        # native aggregate's map side even at 4 rows/block
        return _pa(
            df.groupby("codec", as_index=False)
            .agg(n=("n", "sum"), bad_sr=("bad_sr", "sum"),
                 max_dur_drift_ms=("dur_drift_ms", "max"),
                 max_rms_err_db=("rms_err_db", "max"))
        )

    return (
        resampled.map_batches(partial, batch_format="pyarrow")
        .groupby("codec")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("bad_sr", alias_name="bad_sr"),
            Max("max_dur_drift_ms", alias_name="max_dur_drift_ms"),
            Max("max_rms_err_db", alias_name="max_rms_err_db"),
        )
    )


def clips_integrity(sf_dir: str):
    """Per-codec audio integrity report: clipping / silence / DC-offset /
    peak-level signals (stages/audio_features.py integrity_signals),
    integer-scaled per clip and merged with a partial-agg groupby (one row
    per batch × codec shuffles; bytes dropped in the decode stage).
    Rows-only: clips are engine-generated; ground truth in
    tests/test_audio_features.py."""
    from ray.data.aggregate import Max, Sum

    from schema_guru_ray.sources.clips import ensure_clips, read_clips
    from schema_guru_ray.stages.audio_features import audio_integrity

    path = ensure_clips(sf_dir)
    sig = audio_integrity(read_clips(path))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(
            n=1,
            n_undecodable=(~b["decodable"]).astype("int64"),
            n_clipped=(b["clip_ppm"] > 0).astype("int64"),
            abs_dc_milli=b["dc_milli"].abs(),
        )
        # Arrow out (the _pa rule): pandas blocks are the slow path through
        # the native aggregate even for scalar partial rows
        return _pa(b.groupby("codec", as_index=False).agg(
            n=("n", "sum"),
            n_undecodable=("n_undecodable", "sum"),
            n_clipped=("n_clipped", "sum"),
            max_clip_ppm=("clip_ppm", "max"),
            max_silence_ppm=("silence_ppm", "max"),
            max_abs_dc_milli=("abs_dc_milli", "max"),
            max_peak_dbfs_centi=("peak_dbfs_centi", "max"),
        ))

    return (
        sig.map_batches(partial, batch_format="pandas")
        .groupby("codec")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("n_undecodable", alias_name="n_undecodable"),
            Sum("n_clipped", alias_name="n_clipped"),
            Max("max_clip_ppm", alias_name="max_clip_ppm"),
            Max("max_silence_ppm", alias_name="max_silence_ppm"),
            Max("max_abs_dc_milli", alias_name="max_abs_dc_milli"),
            Max("max_peak_dbfs_centi", alias_name="max_peak_dbfs_centi"),
        )
    )


def curate_clips_summary(sf_dir: str):
    """Flagship AUDIO curation chain (pipelines/curate_clips.py):
    validate-and-filter → exact dedup by clip_id → content near-dup
    removal → resample/normalize, reported as exact per-stage row counts.
    Rows-only (clips are engine-generated); stage ground truth in
    tests/test_curate_clips.py."""
    import ray.data as rd

    from schema_guru_ray.pipelines.curate_clips import curate_clips
    from schema_guru_ray.sources.clips import ensure_clips, read_clips

    path = ensure_clips(sf_dir)
    _, summary = curate_clips(read_clips(path))
    return summary


def clips_content_dedup(sf_dir: str):
    """Content-based audio dedup via the SCALE PATH: 256-bit content
    signatures → linear per-cluster collapse to the minimum hashed id →
    one row per DROPPED clip (rows-only). The all-pairs LSH form
    (``content_dedup_pairs``) stays in the library for bounded candidate
    sets, but is inherently quadratic in near-identical clusters — the
    round-4 full-catalog bench measured it at 258 s over 60k clips
    (7.6/18/59 s at 5k/10k/20k) where this collapse is a single linear
    pass + one scalar-row groupby."""
    from schema_guru_ray.sources.clips import ensure_clips, read_clips
    from schema_guru_ray.stages.audio_features import content_dedup_drop_hashes

    path = ensure_clips(sf_dir)
    return content_dedup_drop_hashes(read_clips(path))


def clips_speed_perturb(sf_dir: str):
    """Speed-perturbation augmentation invariants (the kaldi 0.9/1.1
    convention), verified per factor over the WHOLE perturbed corpus:
    copy count, max duration drift vs the exact expectation
    round(src_dur / factor), and sr preservation. One decode pass emits
    the perturbed copies; the invariant reduce is a tiny per-factor
    aggregate — bytes never shuffle (rows-only; waveform-level ground
    truth in tests/test_audio_transform.py)."""
    from ray.data.aggregate import Max, Sum

    from schema_guru_ray.sources.clips import ensure_clips, read_clips
    from schema_guru_ray.stages.audio_transform import speed_perturb_clips

    path = ensure_clips(sf_dir)
    perturbed = speed_perturb_clips(read_clips(path))

    def partial(t: pa.Table) -> pa.Table:
        f = t["speed_factor"].to_numpy(zero_copy_only=False)
        dur = t["dur_ms"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = t["src_dur_ms"].to_numpy(zero_copy_only=False).astype(np.int64)
        # linear-interp length is round(n/f) samples; in ms the drift vs
        # round(src/f) is bounded by 1 ms of double rounding
        expect = np.floor(src / f + 0.5).astype(np.int64)
        drift = np.abs(dur - expect)
        df = pd.DataFrame({"speed_factor": f, "n": 1, "max_drift_ms": drift})
        g = df.groupby("speed_factor", as_index=False).agg(
            n=("n", "sum"), max_drift_ms=("max_drift_ms", "max"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        perturbed.map_batches(partial, batch_format="pyarrow")
        .groupby("speed_factor")
        .aggregate(
            Sum("n", alias_name="n"),
            Max("max_drift_ms", alias_name="max_drift_ms"),
        )
    )


def clips_noise_mix(sf_dir: str):
    """Noise-mixing augmentation invariant: deterministic white noise at a
    20 dB target SNR per clip; the per-codec aggregate verifies the
    ACHIEVED post-quantization SNR stays within ±0.5 dB of target (the
    stage emits achieved_snr_centi per copy, so the check is a scalar
    aggregate — no re-decode). Rows-only; analytic ground truth in
    tests/test_audio_transform.py."""
    from ray.data.aggregate import Max, Min, Sum

    from schema_guru_ray.sources.clips import ensure_clips, read_clips
    from schema_guru_ray.stages.audio_transform import mix_noise_clips

    path = ensure_clips(sf_dir)
    noisy = mix_noise_clips(read_clips(path), snr_db=20.0)

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({
            "codec": t["codec"],
            "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "snr_centi": t["achieved_snr_centi"],
        })

    return (
        noisy.map_batches(partial, batch_format="pyarrow")
        .groupby("codec")
        .aggregate(
            Sum("n", alias_name="n"),
            Min("snr_centi", alias_name="min_snr_centi"),
            Max("snr_centi", alias_name="max_snr_centi"),
        )
    )


def prepare_audio_training_set(sf_dir: str):
    """Flagship end-to-end AUDIO training-set preparation (the complete
    axes-A+B composition over the clips table): curate (fused
    validate+sign → exact dedup → signature near-dup removal →
    resample/normalize to 16 kHz / -20 dBFS) → 3-way speed-perturbation
    augmentation (1.0/0.9/1.1, the kaldi convention) → fixed-window
    training chunking (250 ms / 100 ms hop). Reports exact integer counts
    per speed factor: clips, windows, total windowed milliseconds — the
    numbers a training job budgets against.

    100-TB shape: every stage is a streaming map over bytes that never
    shuffle (the one corpus-wide shuffle is curate's exact-dedup); the
    window report is a per-factor partial aggregate (≤3 scalar rows per
    batch). Rows-only: window layout, augmentation determinism, and
    duration invariants are pytest ground truth; count relations
    (n windows = Σ floor((dur-250)/100)+1) are asserted in-test."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from schema_guru_ray.pipelines.curate_clips import curate_clips
    from schema_guru_ray.sources.clips import ensure_clips, read_clips
    from schema_guru_ray.stages.audio_transform import perturb_window_clips

    path = ensure_clips(sf_dir)
    curated, _ = curate_clips(read_clips(path))

    # fused augment+window: ONE decode per survivor yields every factor's
    # window rows (the staged speed_perturb_clips → window_clips path pays
    # decode+encode+decode per copy; tests pin row-exact equivalence).
    # Bytes never leave the stage — only ~40-byte layout rows flow on.
    windows = perturb_window_clips(
        curated, factors=(1.0, 0.9, 1.1), window_ms=250, hop_ms=100
    )

    def partial(t: pa.Table) -> pa.Table:
        sp = t["speed_factor"].to_numpy(zero_copy_only=False)
        dur = (
            t["end_ms"].to_numpy(zero_copy_only=False).astype(np.int64)
            - t["start_ms"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        first = t["win_idx"].to_numpy(zero_copy_only=False) == 0
        df = pd.DataFrame({"speed_factor": sp, "n_windows": 1,
                           "window_ms": dur,
                           "n_clips": first.astype(np.int64)})
        g = df.groupby("speed_factor", as_index=False).agg(
            n_windows=("n_windows", "sum"), window_ms=("window_ms", "sum"),
            n_clips=("n_clips", "sum"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        windows.map_batches(partial, batch_format="pyarrow")
        .groupby("speed_factor")
        .aggregate(Sum("n_clips", alias_name="n_clips"),
                   Sum("n_windows", alias_name="n_windows"),
                   Sum("window_ms", alias_name="window_ms"))
        .to_pandas()
    )
    return out.sort_values("speed_factor").reset_index(drop=True)
