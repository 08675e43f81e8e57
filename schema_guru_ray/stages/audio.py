"""Stateful audio-validation stage.

Enforces the north-star per-row invariants (BASELINE.json) over the clips
table:

* decode: ``bytes`` must decode as PCM16 WAV (strict parser) — codec routing
  goes through a decoder registry. ``pcm_mulaw``/``pcm_alaw`` are REAL
  decode paths (pure-numpy G.711, ``audio/g711.py``); flac/opus/mp3 are
  STUBS (the container has no codec libraries) that either fall back to the
  WAV parser (synthetic fixtures carry WAV bytes regardless of the ``codec``
  label) or, in ``strict_codecs`` mode, raise NotImplementedError — the
  Ray-side plumbing (kernel signature, batch flow, output layout) is real
  either way;
* allclose: decoded PCM vs the deterministic reference signal re-synthesized
  from ``clip_id`` must reach SNR >= 30 dB;
* transcript equality vs the reference transcript;
* referential: transcript non-null IFF audio decodable;
* sr_hz within the valid enum; dur_ms consistent with decoded sample count.

Run as ``ds.map_batches(warm_kernel(ClipValidator, ...), batch_size=B,
batch_format="pyarrow")`` — construction-time state (decoder registry,
thresholds) loads once per worker process (stages/warm.py).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa

from schema_guru_ray.audio import synth
from schema_guru_ray.audio.wav import WavDecodeError, decode_wav, snr_db_ref_f32
from schema_guru_ray.sources.clips import SR_VALUES
from schema_guru_ray.stages.binview import binary_views

VERDICT_SCHEMA = pa.schema(
    [
        ("clip_id", pa.string()),
        ("codec", pa.string()),
        ("sr_hz", pa.int32()),
        ("dur_ms", pa.int32()),
        ("decodable", pa.bool_()),
        ("snr_db", pa.float64()),
        ("ok", pa.bool_()),
        ("violations", pa.list_(pa.string())),
    ]
)


def _decode_pcm_s16le(buf: bytes):
    return decode_wav(buf)


def _stub_codec(name: str) -> Callable[[bytes], Tuple[np.ndarray, int]]:
    def decode(buf: bytes):
        # STUB: a real deployment would link libflac/libopus/libmp3lame here.
        raise NotImplementedError(f"{name} decode not available in this environment")

    return decode


class ClipValidator:
    """Stateful kernel, run as a warm task (``stages/warm.py``): clips
    batch in → verdict batch out (audio bytes are dropped from the output,
    so nothing heavy flows downstream)."""

    SNR_THRESHOLD_DB = 30.0

    def __init__(
        self,
        snr_threshold_db: float = 30.0,
        check_transcript: bool = True,
        strict_codecs: bool = False,
        valid_srs: Tuple[int, ...] = SR_VALUES,
        dur_tolerance_ms: int = 1,
        rate_bounds_cps: Optional[Tuple[float, float]] = None,
    ):
        self.snr_threshold_db = snr_threshold_db
        self.check_transcript = check_transcript
        self.valid_srs = frozenset(valid_srs)
        self.dur_tolerance_ms = dur_tolerance_ms
        # speech-rate sanity band in transcript chars/sec — standard speech
        # corpora run ~5-25 cps; OFF by default because the synthetic
        # transcripts are duration-independent word salad and would
        # misfire (real deployments pass e.g. (1.0, 50.0))
        self.rate_bounds_cps = rate_bounds_cps
        # decoder registry — per-worker state, built once (SURVEY.md §2.3).
        # pcm_mulaw/pcm_alaw are REAL decode paths (pure-numpy G.711,
        # audio/g711.py) proving the registry's extension surface; only the
        # codecs whose libraries this container genuinely lacks stay stubs.
        from schema_guru_ray.audio.g711 import decode_wav_g711

        self.decoders: Dict[str, Callable[[bytes], Tuple[np.ndarray, int]]] = {
            "pcm_s16le": _decode_pcm_s16le,
            "pcm_mulaw": decode_wav_g711,
            "pcm_alaw": decode_wav_g711,
        }
        for codec in ("flac", "opus", "mp3"):
            self.decoders[codec] = (
                _stub_codec(codec) if strict_codecs else _decode_pcm_s16le
            )

    def _validate_row(
        self,
        clip_id: str,
        buf: Optional[bytes],
        sr_col: int,
        dur_col: int,
        codec: str,
        transcript: Optional[str],
    ) -> Tuple[bool, float, List[str]]:
        d, s, v, _, _ = self._validate_row_full(
            clip_id, buf, sr_col, dur_col, codec, transcript
        )
        return d, s, v

    def _validate_row_full(
        self,
        clip_id: str,
        buf: Optional[bytes],
        sr_col: int,
        dur_col: int,
        codec: str,
        transcript: Optional[str],
    ) -> Tuple[bool, float, List[str], Optional[np.ndarray], Optional[int]]:
        """Like :meth:`_validate_row` but also returns the decoded
        ``(pcm, sr)`` so fused stages (validate + content-sign in the
        curation chain) can reuse the decode instead of paying a second
        full decode pass over the corpus."""
        violations: List[str] = []
        decodable = False
        snr = float("nan")
        pcm = None
        sr_wav = None
        decoder = self.decoders.get(codec, _decode_pcm_s16le)
        if buf is not None:
            try:
                pcm, sr_wav = decoder(buf)
                decodable = True
            except (WavDecodeError, NotImplementedError):
                decodable = False
        if not decodable:
            violations.append("undecodable_audio")
            if transcript is not None:
                violations.append("transcript_on_undecodable")
            if clip_id is None:
                violations.append("null_clip_id")
            if dur_col is None:
                violations.append("null_dur_ms")
        elif clip_id is None:
            # a broken upstream field on some shard-day: without the id the
            # reference signal/transcript cannot be synthesized, so the
            # allclose/transcript invariants are unverifiable — that is
            # itself a violation, not a crash (10^12-row contract)
            violations.append("null_clip_id")
            if transcript is None:
                violations.append("null_transcript_on_decodable")
            if dur_col is None:
                violations.append("null_dur_ms")
            elif abs(round(len(pcm) / sr_wav * 1000.0) - dur_col) > self.dur_tolerance_ms:
                violations.append("dur_inconsistent")
        else:
            # quantized reference synthesized straight into float32 scratch;
            # SNR bit-identical to the int16-materialized form (see
            # synth.reference_pcm_f32 / wav.snr_db_ref_f32) with four fewer
            # full per-sample passes — the validation headline is
            # memory-bandwidth-bound at high parallelism
            expected = synth.reference_pcm_f32(clip_id, sr_wav, len(pcm))
            snr = snr_db_ref_f32(expected, pcm)
            if snr < self.snr_threshold_db:
                violations.append("snr_below_threshold")
            if transcript is None:
                violations.append("null_transcript_on_decodable")
            elif self.check_transcript and transcript != synth.reference_transcript(clip_id):
                violations.append("transcript_mismatch")
            actual_ms = round(len(pcm) / sr_wav * 1000.0)
            if dur_col is None:
                # null metadata cannot confirm consistency — named violation
                # rather than a TypeError (the null-heavy shard contract)
                violations.append("null_dur_ms")
            elif abs(actual_ms - dur_col) > self.dur_tolerance_ms:
                violations.append("dur_inconsistent")
            if self.rate_bounds_cps is not None and transcript is not None and dur_col is not None:
                lo, hi = self.rate_bounds_cps
                cps = len(transcript) / max(dur_col, 1) * 1000.0
                if not (lo <= cps <= hi):
                    violations.append("speech_rate_out_of_range")
        if sr_col not in self.valid_srs:
            violations.append("sr_out_of_range")
        if codec not in self.decoders:
            # symmetric with sr_out_of_range: a NULL or unregistered codec
            # label is a metadata-contract violation even when the payload
            # happens to decode via the fallback WAV parser
            violations.append("codec_out_of_range")
        return decodable, snr, violations, pcm, sr_wav

    def __call__(self, batch: pa.Table) -> pa.Table:
        clip_ids = batch["clip_id"].to_pylist()
        # zero-copy views of the Arrow value buffer — to_pylist() would
        # copy the whole audio payload once per validation pass
        bufs = binary_views(batch["bytes"])
        srs = batch["sr_hz"].to_pylist()
        durs = batch["dur_ms"].to_pylist()
        codecs = batch["codec"].to_pylist()
        transcripts = batch["transcript"].to_pylist()
        n = len(clip_ids)
        decodable = np.zeros(n, dtype=bool)
        snrs = np.full(n, np.nan)
        oks = np.zeros(n, dtype=bool)
        viols: List[List[str]] = []
        for i in range(n):
            d, s, v = self._validate_row(
                clip_ids[i], bufs[i], srs[i], durs[i], codecs[i], transcripts[i]
            )
            decodable[i] = d
            snrs[i] = s
            oks[i] = not v
            viols.append(v)
        out = pa.Table.from_arrays(
            [
                pa.array(clip_ids, pa.string()),
                pa.array(codecs, pa.string()),
                pa.array(srs, pa.int32()),
                pa.array(durs, pa.int32()),
                pa.array(decodable),
                pa.array(snrs),
                pa.array(oks),
                pa.array(viols, pa.list_(pa.string())),
            ],
            schema=VERDICT_SCHEMA,
        )
        # a checkpoint plan tags each row with its chunk's digest; the tag
        # rides through so the plan's writes and folds can key on it
        if "__chunk" in batch.column_names:
            out = out.append_column("__chunk", batch["__chunk"])
        return out


def explode_violations(batch: pa.Table) -> pa.Table:
    """Verdict batch → long-format violation rows (clip_id, codec, kind).
    Fully vectorized: ``list_flatten`` yields the kinds, and
    ``list_parent_indices`` maps each kind back to its clip row — no
    per-row Python loop (matters at 100 TB of verdicts)."""
    import pyarrow.compute as pc

    mask = pc.greater(pc.list_value_length(batch["violations"]), 0)
    bad = batch.filter(mask)
    viols = bad["violations"].combine_chunks()
    kinds = pc.list_flatten(viols)
    parents = pc.list_parent_indices(viols)
    out = pa.Table.from_arrays(
        [
            pc.take(bad["clip_id"].combine_chunks(), parents),
            pc.take(bad["codec"].combine_chunks(), parents),
            kinds,
        ],
        names=["clip_id", "codec", "kind"],
    )
    if "__chunk" in batch.column_names:  # a checkpoint plan's chunk tag
        out = out.append_column("__chunk", pc.take(bad["__chunk"].combine_chunks(), parents))
    return out
