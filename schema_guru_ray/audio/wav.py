"""Minimal PCM16 mono WAV (RIFF) encode/decode in pure numpy.

The decode path is deliberately strict — header corruption, truncation, or
non-PCM payloads raise :class:`WavDecodeError`, which the validation stage
maps to "not decodable" (the referential rule: transcript non-null iff
decodable audio, BASELINE.json north_star).
"""

from __future__ import annotations

import struct
from typing import Iterator, Sequence, Tuple

import numpy as np


class WavDecodeError(ValueError):
    """Raised when bytes are not a decodable PCM16 mono WAV."""


def encode_wav(pcm: np.ndarray, sample_rate: int) -> bytes:
    """int16 mono samples -> RIFF/WAVE bytes."""
    if pcm.dtype != np.int16:
        raise ValueError("pcm must be int16")
    data = pcm.tobytes()
    byte_rate = sample_rate * 2
    fmt = struct.pack("<HHIIHH", 1, 1, sample_rate, byte_rate, 2, 16)
    chunks = b"".join(
        [
            b"fmt ", struct.pack("<I", len(fmt)), fmt,
            b"data", struct.pack("<I", len(data)), data,
        ]
    )
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def riff_chunks(buf, min_len: int) -> Iterator[Tuple[bytes, memoryview]]:
    """Walk a RIFF/WAVE buffer (``bytes`` or a ``memoryview``, e.g. from
    ``binary_views``) and yield ``(chunk id, body)`` per chunk, the body a
    zero-copy view. Strict: a buffer shorter than ``min_len`` or without
    the RIFF/WAVE header, a RIFF size other than the buffer's, and a chunk
    that runs past the end raise WavDecodeError. The 4-byte ids are
    compared as ``bytes``: comparing a memoryview slice with a bytes
    literal goes element by element and costs several times more."""
    mv = memoryview(buf)
    n = len(mv)
    if n < min_len or mv[:4].tobytes() != b"RIFF" or mv[8:12].tobytes() != b"WAVE":
        raise WavDecodeError("bad RIFF header")
    (riff_size,) = struct.unpack_from("<I", mv, 4)
    if riff_size + 8 != n:
        raise WavDecodeError("truncated RIFF payload")
    pos = 12
    while pos + 8 <= n:
        (size,) = struct.unpack_from("<I", mv, pos + 4)
        body = mv[pos + 8 : pos + 8 + size]
        if len(body) != size:
            raise WavDecodeError("truncated chunk")
        yield mv[pos : pos + 4].tobytes(), body
        pos += 8 + size + (size & 1)  # chunks are word-aligned


def decode_wav(buf: bytes) -> Tuple[np.ndarray, int]:
    """RIFF/WAVE bytes -> (int16 samples, sample_rate). Strict."""
    sample_rate, data = None, None
    for cid, body in riff_chunks(buf, 44):
        if cid == b"fmt ":
            if len(body) < 16:
                raise WavDecodeError("short fmt chunk")
            audio_fmt, channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", body, 0)
            if audio_fmt != 1 or channels != 1 or bits != 16:
                raise WavDecodeError("not PCM16 mono")
            if sample_rate <= 0:
                raise WavDecodeError("bad sample rate")
        elif cid == b"data":
            data = body
    if sample_rate is None or data is None:
        raise WavDecodeError("missing fmt/data chunk")
    if len(data) % 2:
        raise WavDecodeError("odd data length")
    return np.frombuffer(data, dtype="<i2"), sample_rate


def _snr_from_powers(p_sig: float, p_err: float) -> float:
    if p_err == 0.0:
        return float("inf")
    if p_sig == 0.0:
        return float("-inf")
    return 10.0 * np.log10(p_sig / p_err)


_ERR_SCRATCH = np.empty(0, dtype=np.float32)


def snr_db_ref_f32(ref_f32: np.ndarray, decoded: np.ndarray) -> float:
    """:func:`snr_db` for a reference already in float32 (the quantized
    synthesis, ``synth.reference_pcm_f32``): the error vector lands in a
    grow-only scratch buffer and the int16 ``decoded`` widens inside the
    subtract ufunc — no per-clip allocations, two fewer full-array passes.
    Bit-identical result to ``snr_db(ref_f32.astype(np.int16), decoded)``
    for in-range values."""
    global _ERR_SCRATCH
    n = ref_f32.shape[0]
    if ref_f32.shape != decoded.shape or n == 0:
        return float("-inf")
    if _ERR_SCRATCH.shape[0] < n:
        _ERR_SCRATCH = np.empty(max(n, 2 * _ERR_SCRATCH.shape[0]), dtype=np.float32)
    err = _ERR_SCRATCH[:n]
    np.subtract(ref_f32, decoded, out=err)
    return _snr_from_powers(float(np.dot(ref_f32, ref_f32)), float(np.dot(err, err)))


def snr_db_rows(ref: np.ndarray, decoded: Sequence[np.ndarray]) -> np.ndarray:
    """:func:`snr_db_ref_f32` of each row of a synthesis block
    (``synth.synth_blocks``) against its decoded int16 PCM, bit-identical:
    row ``j`` of ``ref`` starts with the reference of ``decoded[j]`` and
    the rest of the row is padding.

    The error block is ``ref`` less a copy of ``ref`` whose rows start
    with their PCM, so the padding subtracts to 0. A row whose errors are
    all 0 — a clean clip — is ``+inf`` with no dot product: both sides
    hold integers, so the error power is 0 exactly when every error is.
    The other rows (noisy clips, G.711) take the same two dot products
    over their row slices as :func:`snr_db_ref_f32`, and zero samples
    still give ``-inf``."""
    err = ref.copy()
    for j, pcm in enumerate(decoded):
        err[j, : len(pcm)] = pcm
    np.subtract(ref, err, out=err)
    out = np.full(len(decoded), np.inf)
    for j in np.flatnonzero(err.any(axis=1)).tolist():
        r, e = ref[j, : len(decoded[j])], err[j, : len(decoded[j])]
        out[j] = _snr_from_powers(float(np.dot(r, r)), float(np.dot(e, e)))
    out[[j for j, pcm in enumerate(decoded) if not len(pcm)]] = float("-inf")
    return out


def snr_db(reference: np.ndarray, decoded: np.ndarray) -> float:
    """Signal-to-noise ratio of ``decoded`` against ``reference`` in dB.
    Mismatched lengths -> -inf (treated as failing any threshold)."""
    if reference.shape != decoded.shape or reference.size == 0:
        return float("-inf")
    # float32 halves the validator's per-sample memory traffic; int16
    # values (and their differences) are exact in float32, and the dot
    # products' accumulation error (~1e-4 dB on million-sample clips) is
    # far inside the 30 dB threshold's design margin
    ref = reference.astype(np.float32)
    err = ref - decoded.astype(np.float32)
    return _snr_from_powers(float(np.dot(ref, ref)), float(np.dot(err, err)))
