"""Differential test of the WAV and G.711 decoders, which share one RIFF
chunk walker (``wav.riff_chunks``), against a copy of the per-decoder
parsers they replaced. Both must return the same samples and sample rate,
or raise WavDecodeError with the same message, for well-formed clips,
truncated and odd-length payloads, a non-PCM fmt, G.711 files and random
byte damage, given ``bytes`` or the memoryviews that ``binary_views``
hands the validator."""

import struct

import numpy as np
import pyarrow as pa
import pytest

from schema_guru_ray.audio.g711 import (
    ALAW_TABLE,
    ULAW_TABLE,
    WAVE_FORMAT_ALAW,
    WAVE_FORMAT_MULAW,
    decode_wav_g711,
    encode_wav_g711,
)
from schema_guru_ray.audio.wav import WavDecodeError, decode_wav, encode_wav
from schema_guru_ray.sources.clips import ClipsConfig, generate_clips_table
from schema_guru_ray.stages.binview import binary_views


def _walk_reference(buf, min_len, on_fmt):
    """The chunk loop each decoder carried before the shared walker."""
    if len(buf) < min_len or buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise WavDecodeError("bad RIFF header")
    (riff_size,) = struct.unpack_from("<I", buf, 4)
    if riff_size + 8 != len(buf):
        raise WavDecodeError("truncated RIFF payload")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(buf):
        cid = buf[pos : pos + 4]
        (size,) = struct.unpack_from("<I", buf, pos + 4)
        body = buf[pos + 8 : pos + 8 + size]
        if len(body) != size:
            raise WavDecodeError("truncated chunk")
        if cid == b"fmt ":
            if size < 16:
                raise WavDecodeError("short fmt chunk")
            fmt = on_fmt(struct.unpack_from("<HHIIHH", body, 0))
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)
    return fmt, data


def decode_wav_reference(buf):
    def on_fmt(f):
        audio_fmt, channels, sample_rate, _, _, bits = f
        if audio_fmt != 1 or channels != 1 or bits != 16:
            raise WavDecodeError("not PCM16 mono")
        if sample_rate <= 0:
            raise WavDecodeError("bad sample rate")
        return sample_rate

    sample_rate, data = _walk_reference(buf, 44, on_fmt)
    if sample_rate is None or data is None:
        raise WavDecodeError("missing fmt/data chunk")
    if len(data) % 2:
        raise WavDecodeError("odd data length")
    return np.frombuffer(data, dtype="<i2"), sample_rate


def decode_wav_g711_reference(buf):
    def on_fmt(f):
        tag, channels, sample_rate, _, _, bits = f
        if tag not in (WAVE_FORMAT_MULAW, WAVE_FORMAT_ALAW):
            raise WavDecodeError("not a G.711 payload")
        if channels != 1 or bits != 8:
            raise WavDecodeError("not mono 8-bit G.711")
        if sample_rate <= 0:
            raise WavDecodeError("bad sample rate")
        return tag, sample_rate

    fmt, data = _walk_reference(buf, 12, on_fmt)
    if fmt is None or data is None:
        raise WavDecodeError("missing fmt/data chunk")
    tag, sample_rate = fmt
    table = ULAW_TABLE if tag == WAVE_FORMAT_MULAW else ALAW_TABLE
    return table[np.frombuffer(data, dtype=np.uint8)], sample_rate


def _outcome(decode, buf):
    try:
        samples, sr = decode(buf)
    except WavDecodeError as exc:
        return "error", str(exc)
    return "ok", samples.dtype.str, samples.tobytes(), sr


def _riff(*chunks):
    """A RIFF/WAVE buffer of ``(id, body)`` chunks, each padded to a word."""
    body = b"".join(cid + struct.pack("<I", len(b)) + b + b"\0" * (len(b) & 1)
                    for cid, b in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def _fmt(tag, channels, sr, bits, size=16):
    block = channels * bits // 8
    return (b"fmt ", struct.pack("<HHIIHH", tag, channels, sr, sr * block, block, bits)[:size])


def _overrun(buf):
    """``buf`` with its last chunk claiming one byte more than it holds."""
    pos = len(buf) - 64 - 4
    (size,) = struct.unpack_from("<I", buf, pos)
    return buf[:pos] + struct.pack("<I", size + 1) + buf[pos + 4:]


def _corpus():
    rng = np.random.default_rng(20)
    clips = generate_clips_table(256, ClipsConfig(seed=21, rate_corrupt=0.05))
    bufs = clips["bytes"].to_pylist()
    pcm = (rng.normal(0, 4000, 333)).astype(np.int16)
    bufs += [encode_wav_g711(pcm, 8000, law) for law in ("ulaw", "alaw")]
    small = encode_wav(pcm[:16], 16000)
    bufs += [small[:n] for n in range(len(small) + 1)]  # every truncation
    bufs += [
        _riff(_fmt(1, 1, 16000, 16), (b"data", b"\1\2\3")),  # odd-length PCM payload
        _riff(_fmt(7, 1, 8000, 8), (b"data", b"\1\2\3")),    # odd-length G.711 payload
        _riff(_fmt(3, 1, 16000, 32), (b"data", b"\0" * 64)),  # float, not PCM
        _riff(_fmt(1, 2, 16000, 16), (b"data", b"\0" * 64)),  # stereo
        _riff(_fmt(6, 1, 8000, 16), (b"data", b"\0" * 64)),   # 16-bit A-law
        _riff(_fmt(1, 1, 0, 16), (b"data", b"\0" * 64)),      # zero sample rate
        _riff(_fmt(7, 1, 0, 8), (b"data", b"\0" * 64)),       # zero G.711 sample rate
        _riff(_fmt(1, 1, 16000, 16, size=14), (b"data", b"\0" * 64)),  # short fmt
        _riff(_fmt(1, 1, 16000, 16), (b"LIST", b"junk!"), (b"data", b"\0" * 64)),
        _riff(_fmt(7, 1, 8000, 8), (b"LIST", b"junk!"), (b"data", b"\1\2\3")),  # padded odd chunk
        _riff((b"data", b"\0" * 64), _fmt(7, 1, 8000, 8)),    # data before fmt
        _riff(_fmt(1, 1, 16000, 16), (b"LIST", b"\0" * 40)),  # no data chunk
        _riff((b"data", b"\0" * 64)),                         # no fmt chunk
        _overrun(_riff(_fmt(1, 1, 16000, 16), (b"data", b"\0" * 64))),
        _overrun(_riff(_fmt(6, 1, 8000, 8), (b"data", b"\0" * 64))),
    ]
    for base in list(bufs[:64]) + bufs[-16:]:  # random damage to real headers
        if base is None or len(base) < 2:
            continue
        b = bytearray(base)
        for pos in rng.integers(0, min(len(b), 48), size=int(rng.integers(1, 4))):
            b[pos] = int(rng.integers(0, 256))
        bufs.append(bytes(b))
    return [b for b in bufs if b is not None]


@pytest.mark.parametrize("decode, reference", [
    (decode_wav, decode_wav_reference),
    (decode_wav_g711, decode_wav_g711_reference),
], ids=["pcm16", "g711"])
def test_shared_walker_matches_the_per_decoder_parsers(decode, reference):
    corpus = _corpus()
    views = binary_views(pa.array(corpus, pa.binary()))
    outcomes = set()
    for buf, view in zip(corpus, views):
        want = _outcome(reference, buf)
        assert _outcome(decode, buf) == want
        assert _outcome(decode, view) == want == _outcome(reference, view)
        outcomes.add(want[:2] if want[0] == "error" else "ok")
    # the corpus reaches decoded clips and every error each parser raises
    assert "ok" in outcomes
    errors = {o[1] for o in outcomes if o != "ok"}
    assert {"bad RIFF header", "truncated RIFF payload", "missing fmt/data chunk",
            "truncated chunk", "short fmt chunk", "bad sample rate"} <= errors
    assert ({"not PCM16 mono", "odd data length"} if decode is decode_wav
            else {"not a G.711 payload", "not mono 8-bit G.711"}) <= errors
