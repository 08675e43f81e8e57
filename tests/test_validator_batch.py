"""The batch validator kernel against its per-row oracle, bit for bit.

``ClipValidator.validate`` synthesizes references in length-sorted blocks
and scores SNR by exact equality; ``_validate_row_full`` synthesizes and
scores one clip at a time. Every verdict column must agree, ``snr_db``
compared on its bits (NaN-aware). The block synthesis is also checked
against a frozen copy of the per-clip float32 arithmetic, and the
generator against the digest of its bytes before block synthesis.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from schema_guru_ray.audio import synth
from schema_guru_ray.audio.g711 import encode_wav_g711
from schema_guru_ray.audio.wav import encode_wav
from schema_guru_ray.sources.clips import CLIPS_SCHEMA, ClipsConfig, generate_rows
from schema_guru_ray.stages.audio import ClipValidator

LENGTHS = (0, 1, 2, synth.BLOCK_ELEMENTS - 1, synth.BLOCK_ELEMENTS,
           synth.BLOCK_ELEMENTS + 1, 192_000)
CODECS = ("pcm_s16le", "pcm_mulaw", "pcm_alaw", "flac", "opus", "mp3", "vorbis", None)


def _frozen_reference_f32(clip_id: str, sr: int, n: int) -> np.ndarray:
    """The per-clip synthesis as it was before block synthesis: scalar
    digest params, then float32 ops term by term."""
    d = hashlib.blake2b(clip_id.encode(), digest_size=64, person=b"sig").digest()
    w = struct.unpack("<16I", d)
    scale = 2.0 ** -32
    k = 1 + int(w[0] * scale * 3.0)
    freqs = [80.0 + (3400.0 - 80.0) * (w[1 + i] * scale) for i in range(k)]
    e = (-np.log1p(np.array([-(w[4 + i] * scale) for i in range(k)]))) + 1e-12
    s = 0.0
    for v in e:
        s += float(v)
    amps = [float(v) / s for v in e]
    phases = [2 * np.pi * (w[7 + i] * scale) for i in range(k)]
    t = np.arange(n, dtype=np.float32) / np.float32(sr)
    acc = np.zeros(n, dtype=np.float32)
    for f, a, p in zip(freqs, amps, phases):
        term = t * (np.float32(f) * np.float32(2 * np.pi))
        term = np.sin(term + np.float32(p)) * np.float32(a)
        acc = term if f == freqs[0] else acc + term
    return np.trunc(acc * np.float32(synth.AMPLITUDE))


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint32 if x.dtype == np.float32 else np.uint64)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.text(min_size=1, max_size=12),
                          st.sampled_from((8000, 16000, 22050, 44100, 48000, 7, 96000)),
                          st.one_of(st.sampled_from(LENGTHS[:-1]), st.integers(0, 5000))),
                min_size=1, max_size=12))
def test_block_synthesis_matches_per_clip_arithmetic(rows):
    ids, srs, ns = (list(c) for c in zip(*rows))
    seen = []
    for idx, block in synth.synth_blocks(ids, srs, ns):
        assert block.shape[0] == len(idx) and block.size <= max(
            synth.BLOCK_ELEMENTS, block.shape[1])
        for j, r in enumerate(idx.tolist()):
            want = _frozen_reference_f32(ids[r], srs[r], ns[r])
            assert np.array_equal(_bits(block[j, : ns[r]]), _bits(want))
            seen.append(r)
    assert sorted(seen) == list(range(len(rows)))
    for cid, sr, n in rows:
        assert np.array_equal(_bits(synth.reference_pcm_f32(cid, sr, n)),
                              _bits(_frozen_reference_f32(cid, sr, n)))


def test_long_row_is_its_own_block():
    ns = [192_000, 100, 200]
    groups = [idx.tolist() for idx, _ in synth.synth_blocks(["a", "a", "a"], [48000] * 3, ns)]
    assert [0] in groups


# sha256 of generate_rows(np.arange(96), ClipsConfig(seed=s)) before block
# synthesis: the corpus bytes (and GEN_VERSION) must not move
GEN_DIGESTS = {
    1: "eb3264f7550729c40cf40cde71db1a6177781c2557910eb8484c74a2588591bd",
    2: "05ce178a3e88bc55e02407f4f66eca5599745daaef4a3ca766c76d6b546147e8",
    3: "85ef4957920bf680dd5ae00afcb1ef9713c0da0c47dfce41153356deeb844b26",
}


def test_generated_rows_keep_their_bytes():
    for seed, want in GEN_DIGESTS.items():
        cols = generate_rows(np.arange(96), ClipsConfig(seed=seed))
        h = hashlib.sha256()
        for name in ("clip_id", "bytes", "sr_hz", "dur_ms", "codec", "transcript"):
            for v in cols[name]:
                b = v if isinstance(v, bytes) else repr(v).encode()
                h.update(len(b).to_bytes(8, "little"))
                h.update(b)
        assert h.hexdigest() == want, seed


def _wav_variants(pcm: np.ndarray, sr: int, kind: str, codec):
    if codec in ("pcm_mulaw", "pcm_alaw") and kind == "plain":
        return encode_wav_g711(pcm, sr, "ulaw" if codec == "pcm_mulaw" else "alaw")
    buf = encode_wav(pcm, sr)
    if kind == "list_chunk":  # a LIST chunk before fmt
        body = buf[12:]
        extra = b"LIST" + struct.pack("<I", 5) + b"abcde\x00"
        return b"RIFF" + struct.pack("<I", 4 + len(extra) + len(body)) + b"WAVE" + extra + body
    if kind == "odd_data":
        data = buf[44:] + b"\x01"
        fmt = buf[12:36]
        chunks = fmt + b"data" + struct.pack("<I", len(data)) + data + b"\x00"
        return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks
    if kind == "truncated":
        return buf[: max(4, len(buf) // 2)]
    if kind == "riff_size":
        return buf[:4] + struct.pack("<I", len(buf)) + buf[8:]
    if kind == "noisy" and len(pcm):
        noise = np.random.default_rng(len(pcm)).normal(0, 3000, len(pcm))
        return encode_wav(np.clip(pcm + noise, -32768, 32767).astype(np.int16), sr)
    return buf


ROW = st.fixed_dictionaries({
    "id": st.one_of(st.none(), st.sampled_from([f"clip-{i}" for i in range(6)])),
    "sr": st.sampled_from((8000, 16000, 48000)),
    "sr_col": st.one_of(st.none(), st.sampled_from((8000, 16000, 48000, 11025))),
    "n": st.one_of(st.sampled_from(LENGTHS), st.integers(0, 3000)),
    "codec": st.sampled_from(CODECS),
    "kind": st.sampled_from(("plain", "plain", "noisy", "list_chunk", "odd_data",
                             "truncated", "riff_size", "null_bytes")),
    "transcript": st.sampled_from(("ref", "other", None)),
    "dur": st.sampled_from(("exact", "off", None)),
})


def _batch(rows) -> pa.Table:
    cols = {k: [] for k in CLIPS_SCHEMA.names}
    for r in rows:
        pcm = synth.reference_pcm(r["id"] or "anon", r["sr"], r["n"])
        buf = None if r["kind"] == "null_bytes" else _wav_variants(pcm, r["sr"], r["kind"], r["codec"])
        dur = round(r["n"] / r["sr"] * 1000.0)
        cols["clip_id"].append(r["id"])
        cols["bytes"].append(buf)
        cols["sr_hz"].append(r["sr_col"])
        cols["dur_ms"].append({"exact": dur, "off": dur + 90, None: None}[r["dur"]])
        cols["codec"].append(r["codec"])
        cols["transcript"].append(
            {"ref": synth.reference_transcript(r["id"] or "anon"), "other": "x" * 40,
             None: None}[r["transcript"]])
    return pa.Table.from_pydict(cols, schema=CLIPS_SCHEMA)


@settings(max_examples=30, deadline=None)
@given(st.lists(ROW, min_size=1, max_size=10), st.booleans(),
       st.sampled_from((None, (1.0, 50.0))))
def test_batch_verdicts_equal_the_per_row_oracle(rows, strict, rate_bounds):
    v = ClipValidator(strict_codecs=strict, rate_bounds_cps=rate_bounds)
    batch = _batch(rows)
    out = v(batch).to_pydict()
    bufs = batch["bytes"].to_pylist()
    for i in range(batch.num_rows):
        d, snr, viols = v._validate_row(
            out["clip_id"][i], bufs[i], out["sr_hz"][i], out["dur_ms"][i],
            out["codec"][i], batch["transcript"][i].as_py())
        assert out["decodable"][i] == d
        assert _bits(np.array([out["snr_db"][i]])) == _bits(np.array([snr]))
        assert out["violations"][i] == viols and out["ok"][i] == (not viols)
