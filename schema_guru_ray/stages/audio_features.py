"""Audio feature extraction — a REAL (no-stub) DSP stage in pure numpy.

Per clip: decode PCM16 WAV → frame (25 ms window / 10 ms hop, Hann) → power
spectrum via rFFT → triangular mel-style filterbank (24 bands, 0-Nyquist) →
log energies → mean+std pooling over time → a fixed 48-dim feature vector.
This is the classic log-mel front end (public DSP; e.g. HTK/librosa docs)
reduced to numpy primitives.

Downstream uses:
* content-based audio dedup — feature vectors through the embedding
  hyperplane-LSH near-dup operator find byte-identical AND same-signal
  clips without looking at clip_id;
* audio similarity search via the ANN operators.

Runs as a warm-task ``map_batches`` stage (stages/warm.py); bytes are dropped
after featurization so only 48 floats per clip flow on.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

from schema_guru_ray.audio.wav import WavDecodeError, decode_wav
from schema_guru_ray.stages.binview import binary_views
from schema_guru_ray.stages.warm import warm_kernel

N_MELS = 24
FEATURE_DIM = 2 * N_MELS


@functools.lru_cache(maxsize=64)
def _mel_filterbank(n_fft: int, sr: int, n_mels: int = N_MELS) -> np.ndarray:
    """Triangular filters spaced on the mel scale (2595*log10(1+f/700)).
    Cached per (n_fft, sr): clips share a handful of sample rates, and
    rebuilding the (n_mels, n_bins) matrix via the Python loop below once
    PER CLIP dominated the feature kernels (round-4 profile: ~2x on the
    whole feature pass)."""
    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    n_bins = n_fft // 2 + 1
    mel_pts = np.linspace(hz_to_mel(0.0), hz_to_mel(sr / 2.0), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    bins = np.floor((n_fft + 1) * hz_pts / sr).astype(int).clip(0, n_bins - 1)
    fb = np.zeros((n_mels, n_bins))
    for m in range(1, n_mels + 1):
        lo, c, hi = bins[m - 1], bins[m], bins[m + 1]
        if c > lo:
            fb[m - 1, lo:c] = (np.arange(lo, c) - lo) / (c - lo)
        if hi > c:
            fb[m - 1, c:hi] = (hi - np.arange(c, hi)) / (hi - c)
    # float32: the filterbank matmul is the front end's hot kernel and the
    # log-energy pipeline runs float32 end-to-end (round-5: the 16-worker
    # CPU-second inflation was partly float64 memory-bus traffic)
    return fb.astype(np.float32)


def _log_energies(pcm: np.ndarray, sr: int, frame_ms: float = 25.0,
                  hop_ms: float = 10.0) -> np.ndarray:
    """(n_frames, N_MELS) float32 log filterbank energies — the shared
    front end for pooled features and MFCCs. The per-sample pipeline
    (frame gather, Hann, rFFT, filterbank matmul, log) runs float32 —
    halving the memory-bus traffic of the heaviest decode-side kernel —
    while every POOLING sum downstream uses a float64 accumulator. Log
    energies are O(1)-magnitude, so float32 keeps ~7 significant digits
    against the ±0.5 dB / sign-threshold tolerances of every consumer."""
    x = pcm.astype(np.float32) / np.float32(32768.0)
    frame = max(16, int(sr * frame_ms / 1000.0))
    hop = max(8, int(sr * hop_ms / 1000.0))
    if x.size < frame:
        x = np.pad(x, (0, frame - x.size))
    n_frames = 1 + (x.size - frame) // hop
    idx = np.arange(frame)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = x[idx] * _hann(frame)[None, :]
    spec = np.abs(np.fft.rfft(frames, axis=1)) ** 2  # complex64 → float32
    fb = _mel_filterbank(frame, sr)
    # floor well above the synthetic noise floor so near-silent bands
    # saturate instead of amplifying noise in log space
    return np.log(spec @ fb.T + np.float32(1e-3))


@functools.lru_cache(maxsize=64)
def _hann(frame: int) -> np.ndarray:
    return np.hanning(frame).astype(np.float32)


def clip_features(pcm: np.ndarray, sr: int, frame_ms: float = 25.0,
                  hop_ms: float = 10.0) -> np.ndarray:
    """(2*N_MELS,) float32 feature vector: mean+std of log filterbank
    energies over time (float64 accumulators over the float32 matrix)."""
    energies = _log_energies(pcm, sr, frame_ms, hop_ms)
    mean = energies.mean(axis=0, dtype=np.float64)
    std = energies.std(axis=0, dtype=np.float64)
    return np.concatenate([mean, std]).astype(np.float32)


N_MFCC = 13


@functools.lru_cache(maxsize=16)
def _dct_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II basis (the standard MFCC cepstral transform);
    cached — it was rebuilt per clip."""
    k = np.arange(n_out)[:, None]
    n = np.arange(n_in)[None, :]
    M = np.cos(np.pi * k * (2 * n + 1) / (2.0 * n_in)) * np.sqrt(2.0 / n_in)
    M[0] /= np.sqrt(2.0)
    return M


def clip_mfcc(pcm: np.ndarray, sr: int, n_mfcc: int = N_MFCC,
              frame_ms: float = 25.0, hop_ms: float = 10.0) -> np.ndarray:
    """(2*n_mfcc,) float32 MFCC vector: DCT-II over log filterbank
    energies, mean+std pooled over time."""
    energies = _log_energies(pcm, sr, frame_ms, hop_ms)
    cep = energies @ _dct_matrix(n_mfcc, energies.shape[1]).T
    return np.concatenate(
        [cep.mean(axis=0, dtype=np.float64), cep.std(axis=0, dtype=np.float64)]
    ).astype(np.float32)


class AudioFeaturizer:
    """map_batches kernel: clips batch → (clip_id, codec, decodable,
    embedding list<float32>) rows. Undecodable clips get a zero vector and
    decodable=False (they are flagged by the validation stage; keeping the
    row preserves 1:1 lineage)."""

    def __init__(self, frame_ms: float = 25.0, hop_ms: float = 10.0):
        self.frame_ms = frame_ms
        self.hop_ms = hop_ms

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["clip_id"].to_pylist()
        codecs = batch["codec"].to_pylist()
        bufs = binary_views(batch["bytes"])
        feats = []
        ok = []
        for buf in bufs:
            try:
                pcm, sr = decode_wav(buf)
                feats.append(clip_features(pcm, sr, self.frame_ms, self.hop_ms))
                ok.append(True)
            except (WavDecodeError, TypeError):
                feats.append(np.zeros(FEATURE_DIM, dtype=np.float32))
                ok.append(False)
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.string()),
                pa.array(codecs, pa.string()),
                pa.array(ok),
                pa.array([f.tolist() for f in feats], pa.list_(pa.float32())),
            ],
            names=["clip_id", "codec", "decodable", "embedding"],
        )


def audio_features(clips_ds, batch_size: int = 256):
    """clips Dataset → feature Dataset (bytes dropped here)."""
    return clips_ds.map_batches(
        warm_kernel(AudioFeaturizer), batch_format="pyarrow",
        batch_size=batch_size,
    )


def content_dedup_pairs(clips_ds, threshold: float = 0.999, n_bits: int = 10):
    """Content-based audio near-dup: feature vectors → hyperplane-LSH
    cosine buckets → in-bucket exact cosine. Finds same-signal clips
    regardless of clip_id."""
    import pyarrow.compute as pc

    from schema_guru_ray.stages.dedup import embedding_near_dup_pairs

    feats = audio_features(clips_ds).map_batches(
        lambda t: t.filter(t["decodable"]), batch_format="pyarrow"
    )
    # dedup operates on integer ids → use a stable per-clip numeric id
    def with_num_id(b: pd.DataFrame) -> pd.DataFrame:
        from schema_guru_ray.stages.profile import stable_hash64

        b = b.copy()
        b["vec_id"] = stable_hash64(b["clip_id"]).astype(np.int64)
        return b

    # materialize the (tiny: 48 floats/clip) feature rows so the decode
    # stage never shares a streaming plan with the LSH groupbys —
    # an all-to-all's resource reservation starves a heavy map operator
    # in the same plan (see pipelines/validate.py codec_verdicts).
    feats = feats.map_batches(with_num_id, batch_format="pandas").materialize()
    return embedding_near_dup_pairs(
        feats, dim=FEATURE_DIM, threshold=threshold, n_bits=n_bits
    )


SILENCE_RMS = 1e-3  # normalized full-scale RMS below which a frame is silent


def integrity_signals(pcm: np.ndarray, sr: int,
                      frame_ms: float = 10.0) -> dict:
    """Per-clip audio integrity signals, all integer-scaled (ppm / milli /
    centi-dB) so downstream aggregation is order-independent:

    * ``clip_ppm`` — fraction of samples at the int16 rails (±32767,
      -32768): analog clipping / hard limiting indicator;
    * ``silence_ppm`` — fraction of non-overlapping ``frame_ms`` frames
      whose RMS is below :data:`SILENCE_RMS`;
    * ``dc_milli`` — DC offset in milli-full-scale (bad decoder tell);
    * ``peak_dbfs_centi`` — peak level in centi-dBFS, floored at -96 dB.
    """
    n = int(pcm.size)
    if n == 0:
        return dict(n_samples=0, clip_ppm=0, silence_ppm=1000000,
                    dc_milli=0, peak_dbfs_centi=-9600)
    clipped = int(np.count_nonzero((pcm >= 32767) | (pcm <= -32767)))
    # float32 samples (int16 values are exactly representable), float64
    # accumulators for every mean — the integer-scaled outputs stay exact
    x = pcm.astype(np.float32) / np.float32(32768.0)
    frame = max(1, int(sr * frame_ms / 1000.0))
    n_frames = max(1, n // frame)
    trimmed = x[: n_frames * frame].reshape(n_frames, frame)
    rms = np.sqrt((trimmed * trimmed).mean(axis=1, dtype=np.float64))
    silent = int(np.count_nonzero(rms < SILENCE_RMS))
    peak = float(np.abs(x).max())
    peak_db = 20.0 * np.log10(max(peak, 10 ** (-96 / 20)))

    def ppm(num, den):
        return int(np.floor(num / den * 1e6 + 0.5))

    return dict(
        n_samples=n,
        clip_ppm=ppm(clipped, n),
        silence_ppm=ppm(silent, n_frames),
        dc_milli=int(np.floor(x.mean(dtype=np.float64) * 1000 + 0.5)),
        peak_dbfs_centi=int(np.floor(peak_db * 100 + 0.5)),
    )


class AudioIntegrity:
    """map_batches kernel: clips batch → per-clip integrity-signal rows
    (bytes dropped in-stage; undecodable clips emit ``decodable=False``
    with zeroed signals to preserve 1:1 lineage)."""

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        ids = batch["clip_id"].to_pylist()
        codecs = batch["codec"].to_pylist()
        rows = []
        for buf in binary_views(batch["bytes"]):
            try:
                pcm, sr = decode_wav(buf)
                sig = integrity_signals(pcm, sr)
                sig["decodable"] = True
            except (WavDecodeError, TypeError):
                sig = dict(n_samples=0, clip_ppm=0, silence_ppm=0,
                           dc_milli=0, peak_dbfs_centi=-9600, decodable=False)
            rows.append(sig)
        out = pd.DataFrame(rows)
        out.insert(0, "clip_id", ids)
        out.insert(1, "codec", codecs)
        return out


def audio_integrity(clips_ds, batch_size: int = 256):
    """clips Dataset → integrity-signal Dataset (streaming, no shuffle)."""
    return clips_ds.map_batches(
        warm_kernel(AudioIntegrity), batch_format="pyarrow",
        batch_size=batch_size,
    )


_SIGN_SEED = 0xA0D1051  # fixed hyperplane seed (deterministic signatures)


def _sign_planes(dim: int, n_bits: int = 64) -> np.ndarray:
    rng = np.random.default_rng(_SIGN_SEED)
    return rng.standard_normal((n_bits, dim))


class ContentSigner:
    """map_batches kernel: decodable clips → (clip_id, vec_id, sig) rows,
    where ``sig`` is a 256-bit hyperplane sign hash of the feature vector
    (fixed seed — deterministic across workers and runs), packed to a hex
    string. Identical signals hash identically ALWAYS (same bytes → same
    features → same signs); a cosine-c pair collides with probability
    (1 - arccos(c)/π)^256 — vanishing below c ≈ 0.9999 — so this targets
    same-content dedup with a tight tolerance. NB: the synthetic sine
    corpus has heavy feature-level near-dup mass BY CONSTRUCTION (close
    frequencies quantize into the same mel band), so collapse counts there
    reflect the corpus, not a bug."""

    N_BITS = 256

    def __init__(self, frame_ms: float = 25.0, hop_ms: float = 10.0):
        self.frame_ms = frame_ms
        self.hop_ms = hop_ms
        self.planes = _sign_planes(FEATURE_DIM, self.N_BITS)

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        from schema_guru_ray.stages.profile import stable_hash64

        ids, sigs = [], []
        for cid, buf in zip(batch["clip_id"].to_pylist(), binary_views(batch["bytes"])):
            try:
                pcm, sr = decode_wav(buf)
            except (WavDecodeError, TypeError):
                continue
            f = clip_features(pcm, sr, self.frame_ms, self.hop_ms).astype(np.float64)
            signs = (self.planes @ f) > 0
            sigs.append(np.packbits(signs).tobytes().hex())
            ids.append(cid)
        out = pd.DataFrame({"clip_id": ids})
        out["vec_id"] = (
            stable_hash64(out["clip_id"]).astype(np.int64)
            if len(out) else pd.Series(dtype="int64")
        )
        out["sig"] = pd.Series(sigs, dtype="object")
        return out


def content_dedup_drop_hashes(clips_ds, batch_size: int = 256):
    """SCALE-PATH content dedup: collapse each content-signature cluster to
    its minimum hashed id and emit the rest as drop ids. One linear pass +
    one groupby of (sig64, vec_id) scalar rows — O(n) shuffle, no pair
    explosion (the all-pairs operator :func:`content_dedup_pairs` is
    inherently quadratic in near-identical clusters: measured 7.6s/18s/59s
    at 5k/10k/20k clips — fine for bounded candidate sets, wrong as the
    corpus-wide dedup primitive). Returns a Dataset of ``drop_h`` int64."""
    sigs = clips_ds.map_batches(
        warm_kernel(ContentSigner), batch_format="pyarrow",
        batch_size=batch_size,
    ).materialize()  # keep the decode maps out of the groupby's plan
    return collapse_drop_hashes(sigs)


def collapse_drop_hashes(sigs_ds):
    """Collapse a (vec_id:int64, sig:string) signature Dataset to drop ids:
    per signature cluster keep the minimum ``vec_id``, emit the rest as
    ``drop_h``. Split out of :func:`content_dedup_drop_hashes` so a chain
    that already computed signatures (the curation chain fuses signing into
    its validation decode pass) pays only this scalar collapse — no second
    decode of the corpus.

    One :func:`stages.joins.bucketed` shuffle on ``sig``, NOT
    groupby(sig): mostly-unique signatures would mean one pandas dispatch
    per distinct signal (≈ per clip at 10^12 scale); inside a bucket one
    vectorized transform("min") collapses every cluster at once."""
    from schema_guru_ray.stages.joins import bucketed

    def drop_bucket(g: pd.DataFrame) -> pa.Table:
        keep = g.groupby("sig")["vec_id"].transform("min")
        rest = g.loc[g["vec_id"] != keep, "vec_id"]
        return pa.table({"drop_h": pa.array(rest.astype("int64"))})

    return bucketed(sigs_ds.select_columns(["vec_id", "sig"]), "sig",
                    drop_bucket, n_rows=sigs_ds.count())


# --- feature-space training prep: SpecAugment masking + corpus CMVN --------


def spec_augment(energies: np.ndarray, key: str, n_time_masks: int = 2,
                 time_mask_max: int = 20, n_freq_masks: int = 2,
                 freq_mask_max: int = 8) -> np.ndarray:
    """SpecAugment-style time/frequency masking (Park et al. 2019) over a
    (n_frames, n_mels) log-energy matrix, DETERMINISTIC per ``key``: the
    mask geometry is drawn from an md5(key)-seeded generator, so the same
    clip always gets the same masks (reproducible training data, exact
    resume). Masked cells are filled with the utterance mean (the standard
    fill that keeps CMVN statistics stable). Returns a new array."""
    import hashlib

    rng = np.random.default_rng(
        int.from_bytes(hashlib.md5(key.encode()).digest()[:8], "big")
    )
    out = energies.copy()
    fill = float(energies.mean()) if energies.size else 0.0
    n_t, n_f = out.shape
    for _ in range(n_time_masks):
        w = int(rng.integers(0, min(time_mask_max, max(n_t, 1)) + 1))
        if w and n_t:
            s = int(rng.integers(0, n_t - w + 1))
            out[s : s + w, :] = fill
    for _ in range(n_freq_masks):
        w = int(rng.integers(0, min(freq_mask_max, max(n_f, 1)) + 1))
        if w and n_f:
            s = int(rng.integers(0, n_f - w + 1))
            out[:, s : s + w] = fill
    return out


class SpecAugmentFeaturizer:
    """map_batches kernel: clips batch → masked pooled features
    (clip_id, codec, decodable, n_frames, embedding). Same output shape as
    :class:`AudioFeaturizer` plus frame accounting; the masking runs on
    the (n_frames, n_mels) matrix BEFORE pooling."""

    def __init__(self, frame_ms: float = 25.0, hop_ms: float = 10.0, **mask_kw):
        self.frame_ms = frame_ms
        self.hop_ms = hop_ms
        self.mask_kw = mask_kw

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["clip_id"].to_pylist()
        codecs = batch["codec"].to_pylist()
        feats, ok, n_frames = [], [], []
        for cid, buf in zip(ids, binary_views(batch["bytes"])):
            try:
                pcm, sr = decode_wav(buf)
                e = _log_energies(pcm, sr, self.frame_ms, self.hop_ms)
                # NULL clip_id seeds the mask as "" — deterministic, no crash
                e = spec_augment(e, cid if cid is not None else "", **self.mask_kw)
                feats.append(
                    np.concatenate(
                        [e.mean(axis=0, dtype=np.float64),
                         e.std(axis=0, dtype=np.float64)]
                    ).astype(np.float32)
                )
                ok.append(True)
                n_frames.append(e.shape[0])
            except (WavDecodeError, TypeError):
                feats.append(np.zeros(FEATURE_DIM, dtype=np.float32))
                ok.append(False)
                n_frames.append(0)
        return pa.Table.from_arrays(
            [
                pa.array(ids, pa.string()),
                pa.array(codecs, pa.string()),
                pa.array(ok),
                pa.array(n_frames, pa.int32()),
                pa.array([f.tolist() for f in feats], pa.list_(pa.float32())),
            ],
            names=["clip_id", "codec", "decodable", "n_frames", "embedding"],
        )


def _combine_moments(frame: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame({
        "s": [np.sum([np.frombuffer(x) for x in frame["s"]], axis=0).tobytes()],
        "ss": [np.sum([np.frombuffer(x) for x in frame["ss"]], axis=0).tobytes()],
        "n": [int(frame["n"].sum())],
    })


def cmvn_stats(feats_ds, column: str = "embedding",
               dim: int = FEATURE_DIM, clamp: bool = True) -> tuple:
    """Corpus-level per-dimension (mean, std) over a list<float> feature
    column — the CMVN gather pass. 100-TB shape: each batch reduces to ONE
    (sum, sumsq, n) sufficient-statistic row (vectorized numpy over the
    stacked batch), and the rows fold through
    :func:`schema_guru_ray.fold.fold_keyed` — never O(#batches) driver
    pandas. With ``clamp`` (default) zero-variance dims get std=1 so
    apply_cmvn is always well-defined; verification callers pass
    ``clamp=False`` for the raw statistics."""
    from schema_guru_ray.fold import fold_keyed

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            # empty block (possible downstream of a decodable filter):
            # a zero sufficient-statistic row keeps the fold schema stable
            z = np.zeros(dim, np.float64).tobytes()
            return pd.DataFrame({"s": [z], "ss": [z], "n": [0]})
        m = np.stack(b[column].to_numpy()).astype(np.float64)
        return pd.DataFrame(
            {
                "s": [m.sum(axis=0).tobytes()],
                "ss": [np.square(m).sum(axis=0).tobytes()],
                "n": [len(m)],
            }
        )

    rows = fold_keyed(
        feats_ds.map_batches(partial, batch_format="pandas"), [], _combine_moments)
    if rows.empty:
        # fully-empty feature set (e.g. an all-undecodable shard after the
        # decodable filter): Ray never ran the partial UDF — return the
        # identity statistics
        mean = np.zeros(dim, np.float64)
        std = np.ones(dim, np.float64) if clamp else np.zeros(dim, np.float64)
        return mean, std
    s = np.frombuffer(rows["s"].iloc[0])
    ss = np.frombuffer(rows["ss"].iloc[0])
    n = int(rows["n"].iloc[0])
    mean = s / max(n, 1)
    var = np.maximum(ss / max(n, 1) - mean ** 2, 0.0)
    std = np.sqrt(var)
    if clamp:
        std[std < 1e-12] = 1.0
    return mean, std


def apply_cmvn(feats_ds, mean: np.ndarray, std: np.ndarray,
               column: str = "embedding"):
    """Broadcast-apply pass: normalize the feature column to zero mean /
    unit variance per dimension using the gathered corpus statistics
    (shipped once via ray.put, read per batch)."""
    import ray

    ref = ray.put((np.asarray(mean), np.asarray(std)))

    def norm(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return b
        mu, sd = ray.get(ref)
        m = np.stack(b[column].to_numpy()).astype(np.float64)
        z = (m - mu[None, :]) / sd[None, :]
        b = b.copy()
        b[column] = [r.astype(np.float32) for r in z]
        return b

    return feats_ds.map_batches(norm, batch_format="pandas")
