"""Deterministic reference-signal + transcript synthesis keyed by clip_id.

Every clip's ground-truth content is a pure function of its ``clip_id``
string: domain-separated blake2b digest words draw the sine mixture
(1-3 components: freq/amp/phase) and the transcript word salad directly.
The validation stage re-synthesizes the expected PCM from (clip_id,
sample_rate, n_samples) alone and checks decoded-PCM allclose via SNR>=30dB
plus transcript equality (BASELINE.json north_star) — no side-channel
ground-truth table is needed at validation time.

One synthesis implementation, :func:`synth_blocks`, serves both sides: the
validator and the generator synthesize whole batches in length-sorted
blocks, and :func:`reference_pcm` / :func:`reference_pcm_f32` are its
one-row case, so a clip's samples do not depend on the rows it was
synthesized with.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

# vocabulary for deterministic word-salad transcripts
_WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima "
    "mike november oscar papa quebec romeo sierra tango uniform victor whiskey "
    "xray yankee zulu amber birch cedar dune ember flint grove harbor iris "
    "jasper kelp lotus maple nectar onyx pearl quartz reed slate timber umber "
    "violet willow yarrow zephyr"
).split()

AMPLITUDE = 0.6 * 32767.0


def clip_seed(clip_id: str) -> int:
    """Stable 64-bit seed from a clip_id (process-independent, unlike
    Python's salted ``hash``)."""
    return int.from_bytes(hashlib.blake2b(clip_id.encode(), digest_size=8).digest(), "little")


# float32 elements per synthesis block. Rows of one component count and
# similar length are synthesized together as one (rows, longest row)
# block of at most this many samples, which stays L2-resident across the
# per-term passes; a longer row is a block of its own.
BLOCK_ELEMENTS = 32 * 1024

_TWO_PI_F32 = np.float32(2 * np.pi)


def _param_columns(clip_ids):
    """``(k, freqs, amps, phases)`` of each id's sine mixture: ``k`` an
    int64 column, the rest float64 ``(n, 3)`` arrays whose terms past
    ``k`` are 0.

    Drawn straight from blake2b digest bytes rather than a PCG64
    Generator, whose SeedSequence set-up costs ~25 us/clip. 16 u32 words
    from one 64-byte digest give every draw at 2^-32 resolution: k
    uniform on {1,2,3}, freqs uniform on [80, 3400) Hz, amps Dirichlet(1)
    via normalized exponentials (-log(1-u)), phases uniform on [0, 2*pi).
    Each column op is the float64 op of the former per-clip scalar form,
    in the same order, and the dead terms' exponentials are 0, so the
    normalizer sums ``(e0 + e1) + e2`` left to right as that form did.
    np.log1p stays: math.log1p differs in the last ulp ~20% of the time,
    which would change corpus bytes and force a GEN_VERSION bump."""
    digests = b"".join(
        hashlib.blake2b(c.encode(), digest_size=64, person=b"sig").digest() for c in clip_ids
    )
    u = np.frombuffer(digests, dtype="<u4").reshape(-1, 16) * 2.0 ** -32
    k = 1 + (u[:, 0] * 3.0).astype(np.int64)
    live = np.arange(3) < k[:, None]
    freqs = np.where(live, 80.0 + (3400.0 - 80.0) * u[:, 1:4], 0.0)
    e = np.where(live, -np.log1p(-u[:, 4:7]) + 1e-12, 0.0)
    amps = e / ((e[:, 0] + e[:, 1]) + e[:, 2])[:, None]
    phases = np.where(live, 2 * np.pi * u[:, 7:10], 0.0)
    return k, freqs, amps, phases


def signal_params(clip_id: str):
    """(freqs, amps, phases) of the clip's sine mixture, one float per
    component (see :func:`_param_columns`)."""
    k, freqs, amps, phases = _param_columns([clip_id])
    k = int(k[0])
    return freqs[0, :k].tolist(), amps[0, :k].tolist(), phases[0, :k].tolist()


def reference_pcm(clip_id: str, sample_rate: int, n_samples: int) -> np.ndarray:
    """The expected int16 PCM for a clip at a given rate/length.

    Synthesis runs in float32: this kernel is the validation headline's
    dominant cost (generator and validator both call it), and float32
    halves the memory-bus traffic the 16-worker scaling leg is bound on
    (measured 4.6 ms -> 1.2 ms per 2 s/48 kHz clip). Precision is bounded
    by the float32 phase argument (grows with t): worst measured SNR vs
    the float64 form is 49.6 dB at 4 s/48 kHz/3.4 kHz — 19 dB above the
    30 dB validation threshold — and since BOTH sides share
    :func:`synth_blocks`, clean clips remain byte-exact (SNR = inf) on any
    corpus generated by the same code (GEN_VERSION in sources/clips.py
    keys the cache)."""
    return reference_pcms([clip_id], [sample_rate], [n_samples])[0]


def reference_pcms(clip_ids, sample_rates, lengths) -> list:
    """:func:`reference_pcm` of every row, synthesized in blocks
    (:func:`synth_blocks`)."""
    out = [None] * len(clip_ids)
    for rows, block in synth_blocks(clip_ids, sample_rates, lengths):
        pcm = block.astype(np.int16)
        for j, r in enumerate(rows.tolist()):
            out[r] = pcm[j, : lengths[r]]
    return out


def reference_pcm_f32(clip_id: str, sample_rate: int, n_samples: int) -> np.ndarray:
    """The QUANTIZED reference samples as float32: the one-row case of
    :func:`synth_blocks`, in its per-process scratch buffer (valid until
    the next synthesis call — consume immediately).

    ``np.trunc`` of the scaled float32 signal equals ``astype(np.int16)``
    exactly for values inside (-32768, 32768) — which this signal is by
    construction (|sig| ≤ ~19661) — so every element equals
    :func:`reference_pcm`'s int16 value and downstream float32
    arithmetic (SNR dot products) is bit-identical to converting the
    int16 form back to float32."""
    ((_, block),) = synth_blocks([clip_id], [sample_rate], [n_samples])
    return block[0]


def synth_blocks(clip_ids, sample_rates, lengths):
    """Synthesize the quantized reference of every ``(clip_id,
    sample_rate, length)`` row, yielding ``(rows, block)`` per group of
    rows: ``rows`` an index array into the inputs and ``block`` a
    ``(len(rows), longest length)`` float32 array whose row ``j`` starts
    with the ``lengths[rows[j]]`` samples of input row ``rows[j]`` (the
    rest of the row is the same signal continued). A block lives in a
    per-process scratch buffer until the next group is synthesized.

    Rows are sorted by ``(k, length)`` and cut into a new group at a
    change of ``k`` or when rows × longest length would pass
    ``BLOCK_ELEMENTS``. Each group is one block with the per-row scalars
    broadcast as columns, computed with the float32 ops of the per-clip
    form in the same order (``t = arange / sr``; per term multiply, add,
    ``sin``, multiply and accumulate; then × ``AMPLITUDE`` and
    ``trunc``), so every row's samples are bit-identical to synthesizing
    it alone. The few numpy calls per group, not per row, are the gain:
    at the corpus' short clips the per-clip form was call-bound."""
    k, freqs, amps, phases = _param_columns(clip_ids)
    wf = freqs.astype(np.float32) * _TWO_PI_F32
    p32 = phases.astype(np.float32)
    a32 = amps.astype(np.float32)
    sr32 = np.asarray(sample_rates, dtype=np.float32)
    lengths = np.asarray(lengths, dtype=np.int64)
    for rows in _groups(k, lengths):
        m, width = len(rows), int(lengths[rows[-1]])
        t, term, acc = (b[: m * width].reshape(m, width) for b in _scratch(m * width))
        np.divide(_sample_indices(width), sr32[rows, None], out=t)
        for j in range(int(k[rows[0]])):
            out = acc if j == 0 else term
            np.multiply(t, wf[rows, j, None], out=out)
            np.add(out, p32[rows, j, None], out=out)
            np.sin(out, out=out)
            np.multiply(out, a32[rows, j, None], out=out)
            if j:
                np.add(acc, term, out=acc)
        # np.clip(-32768, 32767) would be a no-op here — amps sum to 1
        # (+~1e-7 float32 rounding) so |sig| * 0.6 * 32767 <= ~19661
        np.multiply(acc, np.float32(AMPLITUDE), out=acc)
        yield rows, np.trunc(acc, out=acc)


def _groups(k: np.ndarray, lengths: np.ndarray):
    """Index arrays of the synthesis groups (see :func:`synth_blocks`)."""
    order = np.lexsort((lengths, k))
    ks, ns = k[order].tolist(), lengths[order].tolist()
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or ks[i] != ks[start] or (i - start + 1) * ns[i] > BLOCK_ELEMENTS:
            yield order[start:i]
            start = i


_SCRATCH_F32 = (np.empty(0, dtype=np.float32),) * 3


def _scratch(n: int):
    """Three grow-only per-process float32 work buffers of at least n."""
    global _SCRATCH_F32
    if _SCRATCH_F32[0].shape[0] < n:
        size = max(n, 2 * _SCRATCH_F32[0].shape[0])
        _SCRATCH_F32 = tuple(np.empty(size, dtype=np.float32) for _ in range(3))
    return _SCRATCH_F32


_ARANGE_F32 = np.arange(0, dtype=np.float32)


def _sample_indices(n: int) -> np.ndarray:
    """Read-only view of float32 ``arange(n)`` from a grow-only per-process
    cache: allocating a fresh arange was ~10%% of the validator kernel
    (~20 us/clip at the sf0.1 mix). float32 holds integers exactly to
    2^24 — far past any clip length (4 s @ 48 kHz = 192k samples)."""
    global _ARANGE_F32
    if _ARANGE_F32.shape[0] < n:
        _ARANGE_F32 = np.arange(max(n, 2 * _ARANGE_F32.shape[0]), dtype=np.float32)
        _ARANGE_F32.setflags(write=False)
    return _ARANGE_F32[:n]


def reference_transcript(clip_id: str) -> str:
    """The expected word-salad transcript for a clip (5-12 words).

    Like :func:`signal_params`, drawn from dedicated blake2b digest bytes
    (domain-separated by ``person``) instead of a PCG64 stream — the
    Generator construction dominated this function's cost in the
    validation hot path. Byte 0 picks the length, u16 words pick the
    vocabulary indices (modulo bias over a 52-word list is ~1e-3 and
    irrelevant for word salad)."""
    d = hashlib.blake2b(clip_id.encode(), digest_size=32, person=b"txt").digest()
    n = 5 + d[0] % 8
    # integer-only, so plain struct.unpack is bit-identical to the numpy
    # form and ~3x cheaper at one call per clip in the validation hot path
    words = struct.unpack_from(f"<{n}H", d, 2)
    m = len(_WORDS)
    return " ".join(_WORDS[w % m] for w in words)
