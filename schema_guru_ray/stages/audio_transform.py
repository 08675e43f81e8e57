"""Audio transform stages — energy-based segmentation (VAD) and
resample / loudness-normalize. Pure-numpy DSP (public textbook methods:
frame-RMS gating with hysteresis; linear-interpolation resampling), run as
warm-task ``map_batches`` stages (stages/warm.py) over the clips table
(clip_id, bytes, sr_hz, dur_ms, codec, transcript).

At 10^12-clip scale both stages are embarrassingly parallel (no shuffle):
bytes stay inside the stage — the segmenter emits only (clip_id, seg_idx,
start_ms, end_ms, rms_db) rows, and the resampler writes its output
partitioned by input shard so a failed run skips finished partitions.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

from schema_guru_ray.audio.wav import WavDecodeError, decode_wav, encode_wav
from schema_guru_ray.stages.binview import binary_views
from schema_guru_ray.stages.warm import warm_kernel

SEGMENT_SCHEMA = pa.schema(
    [
        ("clip_id", pa.string()),
        ("seg_idx", pa.int32()),
        ("start_ms", pa.int32()),
        ("end_ms", pa.int32()),
        ("rms_db", pa.float64()),
    ]
)


def frame_rms_db(pcm: np.ndarray, sr: int, frame_ms: float = 20.0) -> np.ndarray:
    """Per-frame RMS level in dBFS (0 dB = full-scale int16), vectorized:
    pad to a frame multiple, reshape to (n_frames, frame), one mean per
    row. Silence floors at -120 dB."""
    frame = max(1, int(sr * frame_ms / 1000.0))
    # float32 samples (int16/2^15 is exact), float64 mean accumulator
    x = pcm.astype(np.float32) / np.float32(32768.0)
    n_frames = max(1, -(-len(x) // frame))
    pad = n_frames * frame - len(x)
    if pad:
        x = np.concatenate([x, np.zeros(pad, dtype=np.float32)])
    power = np.square(x).reshape(n_frames, frame).mean(axis=1, dtype=np.float64)
    return 10.0 * np.log10(np.maximum(power, 1e-12))


def energy_segments(
    pcm: np.ndarray,
    sr: int,
    frame_ms: float = 20.0,
    threshold_db: float = -40.0,
    min_seg_ms: float = 100.0,
    max_gap_ms: float = 150.0,
) -> List[Tuple[int, int, float]]:
    """Voiced segments [(start_ms, end_ms, seg_rms_db), ...]: frames above
    ``threshold_db`` are voiced; gaps of unvoiced frames up to
    ``max_gap_ms`` inside speech are bridged (hysteresis), segments
    shorter than ``min_seg_ms`` are dropped. Run detection is a vectorized
    ``diff`` over the gate — no per-frame Python loop."""
    db = frame_rms_db(pcm, sr, frame_ms)
    voiced = db > threshold_db
    if not voiced.any():
        return []
    # run starts/ends via edge detection
    edges = np.diff(voiced.astype(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)  # exclusive
    # bridge gaps <= max_gap frames
    max_gap = max(0, int(round(max_gap_ms / frame_ms)))
    merged: List[List[int]] = []
    for s, e in zip(starts, ends):
        if merged and s - merged[-1][1] <= max_gap:
            merged[-1][1] = e
        else:
            merged.append([s, e])
    min_frames = max(1, int(round(min_seg_ms / frame_ms)))
    out: List[Tuple[int, int, float]] = []
    frame = max(1, int(sr * frame_ms / 1000.0))
    n_samples = len(pcm)
    for s, e in merged:
        if e - s < min_frames:
            continue
        start_ms = int(round(s * frame * 1000.0 / sr))
        end_ms = int(round(min(e * frame, n_samples) * 1000.0 / sr))
        seg = pcm[s * frame : min(e * frame, n_samples)].astype(np.float32) / np.float32(32768.0)
        rms = 10.0 * np.log10(max(float(np.square(seg).mean(dtype=np.float64)), 1e-12))
        out.append((start_ms, end_ms, rms))
    return out


class EnergySegmenter:
    """Actor-pool kernel: clips batch → segment rows (bytes dropped here;
    only ~20 bytes/segment flow on). Undecodable clips emit no rows — they
    are the validation stage's job, not the segmenter's."""

    def __init__(self, frame_ms: float = 20.0, threshold_db: float = -40.0,
                 min_seg_ms: float = 100.0, max_gap_ms: float = 150.0):
        self.frame_ms = frame_ms
        self.threshold_db = threshold_db
        self.min_seg_ms = min_seg_ms
        self.max_gap_ms = max_gap_ms

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, seg_idx, starts, ends, dbs = [], [], [], [], []
        for cid, buf in zip(batch["clip_id"].to_pylist(), binary_views(batch["bytes"])):
            if buf is None:
                continue
            try:
                pcm, sr = decode_wav(buf)
            except (WavDecodeError, TypeError):
                continue
            for i, (s, e, db) in enumerate(
                energy_segments(pcm, sr, self.frame_ms, self.threshold_db,
                                self.min_seg_ms, self.max_gap_ms)
            ):
                ids.append(cid)
                seg_idx.append(i)
                starts.append(s)
                ends.append(e)
                dbs.append(db)
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.string()),
                pa.array(seg_idx, pa.int32()),
                pa.array(starts, pa.int32()),
                pa.array(ends, pa.int32()),
                pa.array(dbs, pa.float64()),
            ],
            schema=SEGMENT_SCHEMA,
        )


def segment_clips(clips_ds, batch_size: int = 256, **kw):
    """clips Dataset → (clip_id, seg_idx, start_ms, end_ms, rms_db)."""
    return clips_ds.map_batches(
        warm_kernel(EnergySegmenter, **kw), batch_format="pyarrow",
        batch_size=batch_size,
    )


WINDOW_SCHEMA = pa.schema(
    [
        ("clip_id", pa.string()),
        ("win_idx", pa.int32()),
        ("start_ms", pa.int32()),
        ("end_ms", pa.int32()),
        ("rms_db", pa.float64()),
    ]
)


def window_layout(n_samples: int, sr: int, window_ms: int, hop_ms: int):
    """Deterministic training-window layout over one clip: start sample of
    every full window of ``window_ms`` advancing by ``hop_ms``. Clips
    shorter than one window yield zero windows (no padding — the packing
    stage owns padding policy). Returns (starts, win_samples)."""
    win = max(1, int(sr * window_ms / 1000.0))
    hop = max(1, int(sr * hop_ms / 1000.0))
    if n_samples < win:
        return np.zeros(0, dtype=np.int64), win
    n_win = (n_samples - win) // hop + 1
    return np.arange(n_win, dtype=np.int64) * hop, win


class WindowChunker:
    """Actor-pool kernel: clips batch → fixed-length training-window rows
    (clip_id, win_idx, start_ms, end_ms, rms_db). The per-window RMS is
    vectorized across ALL windows of a clip via one cumulative sum of
    squares (O(n) per clip regardless of overlap — overlapping windows
    never re-read samples). With ``emit_bytes=True`` each row also carries
    the window's PCM re-encoded as WAV (the export path for training
    shards); default False so only ~30-byte rows leave the stage and the
    audio column never crosses a shuffle."""

    def __init__(self, window_ms: int = 250, hop_ms: int = 100,
                 emit_bytes: bool = False):
        self.window_ms = window_ms
        self.hop_ms = hop_ms
        self.emit_bytes = emit_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, idxs, starts_ms, ends_ms, dbs = [], [], [], [], []
        wavs: List[bytes] = []
        for cid, buf in zip(batch["clip_id"].to_pylist(), binary_views(batch["bytes"])):
            if buf is None:
                continue
            try:
                pcm, sr = decode_wav(buf)
            except (WavDecodeError, TypeError):
                continue
            starts, win = window_layout(len(pcm), sr, self.window_ms, self.hop_ms)
            if not len(starts):
                continue
            x = pcm.astype(np.float32) / np.float32(32768.0)
            cs = np.concatenate([[0.0], np.square(x).cumsum(dtype=np.float64)])
            power = (cs[starts + win] - cs[starts]) / win
            db = 10.0 * np.log10(np.maximum(power, 1e-12))
            ids.extend([cid] * len(starts))
            idxs.extend(range(len(starts)))
            starts_ms.extend((starts * 1000.0 / sr).round().astype(int).tolist())
            ends_ms.extend(((starts + win) * 1000.0 / sr).round().astype(int).tolist())
            dbs.extend(db.tolist())
            if self.emit_bytes:
                wavs.extend(encode_wav(pcm[s : s + win], sr) for s in starts)
        arrays = [
            pa.array(ids, pa.string()),
            pa.array(idxs, pa.int32()),
            pa.array(starts_ms, pa.int32()),
            pa.array(ends_ms, pa.int32()),
            pa.array(dbs, pa.float64()),
        ]
        schema = WINDOW_SCHEMA
        if self.emit_bytes:
            arrays.append(pa.array(wavs, pa.binary()))
            schema = WINDOW_SCHEMA.append(pa.field("bytes", pa.binary()))
        return pa.Table.from_arrays(arrays, schema=schema)


def window_clips(clips_ds, window_ms: int = 250, hop_ms: int = 100,
                 emit_bytes: bool = False, batch_size: int = 256):
    """clips Dataset → fixed training-window rows. With ``emit_bytes`` the
    batch size should shrink (each input clip multiplies into
    ~dur/hop windows of payload)."""
    kw = {"window_ms": window_ms, "hop_ms": hop_ms, "emit_bytes": emit_bytes}
    bs = batch_size if not emit_bytes else max(16, batch_size // 8)
    return clips_ds.map_batches(
        warm_kernel(WindowChunker, **kw), batch_format="pyarrow", batch_size=bs,
    )


def resample_pcm(pcm: np.ndarray, sr_in: int, sr_out: int) -> np.ndarray:
    """Linear-interpolation resample int16 → int16. Output length is
    round(n * sr_out / sr_in) so duration is preserved to < 1 sample.
    (Production path would be a polyphase windowed-sinc; linear keeps the
    stage dependency-free and is exact for the synthesis tests.)"""
    if sr_in == sr_out:
        return pcm.copy()
    n_out = int(round(len(pcm) * sr_out / sr_in))
    if n_out <= 0 or len(pcm) == 0:
        return np.zeros(0, dtype=np.int16)
    # float64 sample POSITIONS (float32 cannot index past 2^24 samples
    # exactly), float32 gather + lerp (int16 values are exact in float32;
    # the lerp's rounding error ≪ the int16 quantization step)
    t_out = np.arange(n_out, dtype=np.float64) * (sr_in / sr_out)
    i0 = np.minimum(t_out.astype(np.int64), len(pcm) - 1)
    i1 = np.minimum(i0 + 1, len(pcm) - 1)
    frac = (t_out - i0).astype(np.float32)
    x = pcm.astype(np.float32)
    y = x[i0] + (x[i1] - x[i0]) * frac
    return np.clip(np.rint(y), -32768, 32767).astype(np.int16)


def normalize_rms(pcm: np.ndarray, target_dbfs: float = -20.0) -> np.ndarray:
    """Scale to the target RMS level (dBFS re full-scale int16), with peak
    clamp at full scale. Silent input returns unchanged."""
    x = pcm.astype(np.float32) / np.float32(32768.0)
    rms = float(np.sqrt(np.square(x).mean(dtype=np.float64))) if len(x) else 0.0
    if rms <= 1e-9:
        return pcm.copy()
    gain = (10.0 ** (target_dbfs / 20.0)) / rms
    peak = float(np.abs(x).max())
    if peak * gain > 1.0:  # never clip: cap gain at full-scale peak
        gain = 1.0 / peak
    return np.clip(
        np.rint(x * np.float32(gain * 32768.0)), -32768, 32767
    ).astype(np.int16)


class AudioResampler:
    """Actor-pool kernel: re-encode every decodable clip at ``sr_out`` with
    RMS loudness normalization; output keeps the input table's shape
    (clip_id, bytes, sr_hz, dur_ms, codec, transcript) so the result IS a
    clips table — validation and featurization run on it unchanged.
    Undecodable clips pass through untouched (flagging them is the
    validator's job)."""

    def __init__(self, sr_out: int = 16000, target_dbfs: Optional[float] = -20.0):
        self.sr_out = sr_out
        self.target_dbfs = target_dbfs

    def __call__(self, batch: pa.Table) -> pa.Table:
        bufs = binary_views(batch["bytes"])  # zero-copy Arrow views
        out_bytes, out_sr, out_dur = [], [], []
        for buf, sr0, dur0 in zip(
            bufs, batch["sr_hz"].to_pylist(), batch["dur_ms"].to_pylist()
        ):
            try:
                pcm, sr = decode_wav(buf)
            except (WavDecodeError, TypeError):
                # passthrough: pa.array needs bytes, not a borrowed view
                out_bytes.append(None if buf is None else bytes(buf))
                out_sr.append(sr0)
                out_dur.append(dur0)
                continue
            y = resample_pcm(pcm, sr, self.sr_out)
            if self.target_dbfs is not None:
                y = normalize_rms(y, self.target_dbfs)
            out_bytes.append(encode_wav(y, self.sr_out))
            out_sr.append(self.sr_out)
            out_dur.append(int(round(len(y) * 1000.0 / self.sr_out)))
        cols = {name: batch[name] for name in batch.column_names}
        cols["bytes"] = pa.array(out_bytes, pa.binary())
        cols["sr_hz"] = pa.array(out_sr, pa.int32())
        cols["dur_ms"] = pa.array(out_dur, pa.int32())
        return pa.Table.from_arrays(list(cols.values()), names=list(cols.keys()))


def resample_clips(clips_ds, sr_out: int = 16000,
                   target_dbfs: Optional[float] = -20.0, batch_size: int = 128):
    """clips Dataset → clips Dataset at a uniform sample rate + loudness.
    Batch size is small because bytes stay in the batch (large-binary
    guidance from the Ray Data guide)."""
    kw = {"sr_out": sr_out, "target_dbfs": target_dbfs}
    return clips_ds.map_batches(
        warm_kernel(AudioResampler, **kw), batch_format="pyarrow",
        batch_size=batch_size,
    )


# --- training-data augmentation: speed perturbation + noise mixing --------


def speed_perturb_pcm(pcm: np.ndarray, sr: int, factor: float) -> np.ndarray:
    """Speed-perturb by ``factor`` (sox/kaldi convention: 1.1 = 10% faster,
    duration × 1/factor): resample the waveform to round(n/factor) samples
    and keep the original sample-rate label. Linear-interp core shared with
    :func:`resample_pcm`."""
    if factor == 1.0:
        return pcm.copy()
    return resample_pcm(pcm, sr_in=sr, sr_out=int(round(sr / factor)))


class SpeedPerturber:
    """map_batches kernel: each decodable clip → one perturbed copy per
    factor, clip_id suffixed ``#sp<factor>`` (the kaldi 3-way convention
    0.9/1.0/1.1 — pass ``(0.9, 1.1)`` and union with the originals for the
    classic triple). Output keeps the clips-table shape so validation /
    featurization / export run on it unchanged. Undecodable clips are
    skipped (they carry no usable signal to perturb). Deterministic:
    same input row + factor → same output bytes, so shard export resumes
    byte-identically."""

    def __init__(self, factors: Tuple[float, ...] = (0.9, 1.1)):
        self.factors = tuple(factors)

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols = {n: (binary_views(batch[n]) if n == "bytes" else batch[n].to_pylist())
                for n in batch.column_names}
        rows = {n: [] for n in batch.column_names}
        extra_sp, extra_src = [], []
        for i in range(batch.num_rows):
            buf = cols["bytes"][i]
            try:
                pcm, sr = decode_wav(buf)
            except (WavDecodeError, TypeError):
                continue
            for f in self.factors:
                y = speed_perturb_pcm(pcm, sr, f)
                for n in batch.column_names:
                    if n == "clip_id":
                        rows[n].append(f"{cols[n][i] or ''}#sp{f}")
                    elif n == "bytes":
                        rows[n].append(encode_wav(y, sr))
                    elif n == "dur_ms":
                        rows[n].append(int(round(len(y) * 1000.0 / sr)))
                    else:
                        rows[n].append(cols[n][i])
                extra_sp.append(f)
                # source duration from the DECODED waveform, not the
                # metadata column: dur-inconsistent clips (the generator
                # plants them at ~1e-3) would otherwise break the
                # round(src/f) +/- 1 ms drift invariant by up to 500 ms
                extra_src.append(int(round(len(pcm) * 1000.0 / sr)))
        out = pa.table({
            n: pa.array(rows[n], batch.schema.field(n).type)
            for n in batch.column_names
        })
        return out.append_column(
            "speed_factor", pa.array(extra_sp, pa.float64())
        ).append_column("src_dur_ms", pa.array(extra_src, pa.int32()))


def speed_perturb_clips(clips_ds, factors: Tuple[float, ...] = (0.9, 1.1),
                        batch_size: int = 128):
    """clips Dataset → perturbed-copies Dataset (clips shape +
    ``speed_factor``). Streaming map; bytes never shuffle."""
    return clips_ds.map_batches(
        warm_kernel(SpeedPerturber, factors=tuple(factors)),
        batch_format="pyarrow", batch_size=batch_size,
    )


class NoiseMixer:
    """map_batches kernel: mix deterministic white noise into each
    decodable clip at a target SNR (the standard noisy-copy augmentation).
    The noise is seeded from md5(clip_id) — same clip, same noise, exact
    resume — scaled so signal-power / noise-power hits ``snr_db`` before
    int16 quantization. Output keeps the clips-table shape plus
    ``achieved_snr_centi`` (int64, measured against the actually-added
    noise AFTER quantization/clipping) so a downstream invariant check is
    a scalar aggregate, not a re-decode."""

    def __init__(self, snr_db: float = 20.0):
        self.snr_db = float(snr_db)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib

        cols = {n: (binary_views(batch[n]) if n == "bytes" else batch[n].to_pylist())
                for n in batch.column_names}
        rows = {n: [] for n in batch.column_names}
        achieved = []
        ratio = 10.0 ** (self.snr_db / 10.0)
        for i in range(batch.num_rows):
            buf = cols["bytes"][i]
            cid = cols["clip_id"][i]
            try:
                pcm, sr = decode_wav(buf)
            except (WavDecodeError, TypeError):
                continue
            x = pcm.astype(np.float32)  # int16 values are exact in float32
            p_sig = float(np.mean(x * x, dtype=np.float64))
            if p_sig <= 0.0:
                continue  # all-silent: SNR undefined, skip like undecodable
            # a NULL clip_id (broken upstream field) seeds as "" — still
            # deterministic, never a crash on a degenerate shard
            rng = np.random.default_rng(
                int.from_bytes(hashlib.md5((cid or "").encode()).digest()[:8], "big")
            )
            noise = rng.standard_normal(len(x), dtype=np.float32)
            noise *= np.float32(
                np.sqrt(p_sig / ratio)
                / np.sqrt(float(np.mean(noise * noise, dtype=np.float64)))
            )
            mixed = np.clip(np.rint(x + noise), -32768, 32767).astype(np.int16)
            added = mixed.astype(np.float32) - x  # the noise that SURVIVED
            p_noise = float(np.mean(added * added, dtype=np.float64))
            snr_out = 10.0 * np.log10(p_sig / max(p_noise, 1e-12))
            for n in batch.column_names:
                if n == "clip_id":
                    rows[n].append(f"{cid or ''}#n{self.snr_db:g}")
                elif n == "bytes":
                    rows[n].append(encode_wav(mixed, sr))
                else:
                    rows[n].append(cols[n][i])
            achieved.append(int(round(snr_out * 100)))
        out = pa.table({
            n: pa.array(rows[n], batch.schema.field(n).type)
            for n in batch.column_names
        })
        return out.append_column(
            "achieved_snr_centi", pa.array(achieved, pa.int64())
        )


def mix_noise_clips(clips_ds, snr_db: float = 20.0, batch_size: int = 128):
    """clips Dataset → noisy-copies Dataset (clips shape +
    ``achieved_snr_centi``). Streaming map; bytes never shuffle."""
    return clips_ds.map_batches(
        warm_kernel(NoiseMixer, snr_db=snr_db),
        batch_format="pyarrow", batch_size=batch_size,
    )


class PerturbWindowChunker:
    """Fused augmentation + window layout: ONE decode per source clip
    yields training-window rows for every speed factor — the perturbed
    waveform is windowed directly from the resampled pcm, never
    re-encoded to WAV and re-decoded (the staged
    ``speed_perturb_clips → window_clips`` path pays decode+encode+decode
    per copy; use it when the augmented BYTES themselves must exist, e.g.
    the shard-export job). Same layout + cumsum-RMS kernel as
    :class:`WindowChunker`, same clip_id suffix convention as
    :class:`SpeedPerturber`, plus a ``speed_factor`` column."""

    def __init__(self, factors: Tuple[float, ...] = (1.0, 0.9, 1.1),
                 window_ms: int = 250, hop_ms: int = 100):
        self.factors = tuple(factors)
        self.window_ms = window_ms
        self.hop_ms = hop_ms

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, idxs, starts_ms, ends_ms, dbs, facs = [], [], [], [], [], []
        for cid, buf in zip(batch["clip_id"].to_pylist(), binary_views(batch["bytes"])):
            if buf is None:
                continue
            try:
                pcm, sr = decode_wav(buf)
            except (WavDecodeError, TypeError):
                continue
            for f in self.factors:
                y = speed_perturb_pcm(pcm, sr, f)
                starts, win = window_layout(len(y), sr, self.window_ms, self.hop_ms)
                if not len(starts):
                    continue
                x = y.astype(np.float32) / np.float32(32768.0)
                cs = np.concatenate([[0.0], np.square(x).cumsum(dtype=np.float64)])
                power = (cs[starts + win] - cs[starts]) / win
                db = 10.0 * np.log10(np.maximum(power, 1e-12))
                out_id = cid if f == 1.0 else f"{cid}#sp{f}"
                ids.extend([out_id] * len(starts))
                idxs.extend(range(len(starts)))
                starts_ms.extend((starts * 1000.0 / sr).round().astype(int).tolist())
                ends_ms.extend(((starts + win) * 1000.0 / sr).round().astype(int).tolist())
                dbs.extend(db.tolist())
                facs.extend([f] * len(starts))
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.string()),
                pa.array(idxs, pa.int32()),
                pa.array(starts_ms, pa.int32()),
                pa.array(ends_ms, pa.int32()),
                pa.array(dbs, pa.float64()),
                pa.array(facs, pa.float64()),
            ],
            schema=WINDOW_SCHEMA.append(pa.field("speed_factor", pa.float64())),
        )


def perturb_window_clips(clips_ds, factors: Tuple[float, ...] = (1.0, 0.9, 1.1),
                         window_ms: int = 250, hop_ms: int = 100,
                         batch_size: int = 256):
    """clips Dataset → augmented window-layout rows, one decode per clip."""
    kw = {"factors": tuple(factors), "window_ms": window_ms, "hop_ms": hop_ms}
    return clips_ds.map_batches(
        warm_kernel(PerturbWindowChunker, **kw),
        batch_format="pyarrow", batch_size=batch_size,
    )
