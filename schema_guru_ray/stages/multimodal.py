"""Multimodal column plumbing: opaque ``binary`` payloads + typed metadata,
processed by warm-task ``map_batches`` stages (stages/warm.py).

The container ships no image/video libraries, so decode resolves in
order: **PNG payloads decode for real** (pure stdlib zlib + numpy,
``media/png.py`` — same move as the audio side's G.711 tables), PIL when
importable handles other formats, and anything else falls to a
deterministic fake (``NotImplementedError`` in strict mode) — so the
Ray-side plumbing (schema contracts, kernel signatures, batch sizing for
wide binary rows, output layout) always runs end-to-end. Audio's PCM
WAV decoder in ``audio/wav.py`` is likewise fully real.

Batch-size guidance for wide binary rows (SURVEY.md §7.4): keep
``batch_size`` small enough that ``batch_size × median_payload ×
tasks in flight`` fits the worker heap, and raise
``DataContext.target_max_block_size`` so blocks aren't split absurdly
small.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa


def _try_import_pil():
    try:
        from PIL import Image  # noqa: F401

        return Image
    except ImportError:
        return None


def fake_decode_image(buf: bytes, size: Tuple[int, int] = (32, 32)) -> np.ndarray:
    """Deterministic fake decoder: payload digest → seeded RGB array. Lets
    the full pipeline (decode → resize → featurize) run end-to-end without
    an image library; swap for PIL/libjpeg in deployment."""
    seed = int.from_bytes(hashlib.blake2b(buf, digest_size=8).digest(), "little")
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 256, size=(size[0], size[1], 3), dtype=np.uint8)


_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def synth_media_png(payload: bytes, size: Tuple[int, int] = (24, 24)) -> bytes:
    """Deterministic payload → real PNG bytes: a two-axis gradient
    modulated by digest bytes, so the image has low-frequency structure
    (meaningful for pHash) and identical payloads yield byte-identical
    PNGs. Used by the catalog's multimodal queries to run the REAL
    decode path (media/png.py) end-to-end with no image library."""
    from schema_guru_ray.media.png import encode_png

    d = np.frombuffer(
        hashlib.blake2b(payload, digest_size=32, person=b"img").digest(), dtype=np.uint8
    ).astype(np.int32)
    h, w = size
    y = np.arange(h, dtype=np.int32)[:, None]
    x = np.arange(w, dtype=np.int32)[None, :]
    img = np.empty((h, w, 3), dtype=np.uint8)
    for c in range(3):
        img[:, :, c] = (
            d[c] + y * d[3 + c] // max(1, h - 1) + x * d[6 + c] // max(1, w - 1)
            + ((y * d[9 + c] // 8) % 7) * d[12 + c] // 7
        ) % 256
    return encode_png(img)


def decode_image(buf: bytes, pil=None, strict: bool = False) -> np.ndarray:
    """Shared decoder chain for the image kernels: real pure-stdlib PNG
    decode when the payload carries the PNG signature, PIL for other
    formats when importable, deterministic fake otherwise (strict mode
    raises instead of faking — marking exactly where libjpeg-class
    dependencies plug in). Always returns (H, W, 3) uint8 RGB."""
    if buf[:8] == _PNG_SIGNATURE:
        from schema_guru_ray.media.png import decode_png, to_rgb

        return to_rgb(decode_png(bytes(buf)))
    if pil is not None:
        import io

        return np.asarray(pil.open(io.BytesIO(buf)).convert("RGB"))
    if strict:
        raise NotImplementedError(
            "non-PNG image decode requires PIL/libjpeg — not available in "
            "this environment (PNG decodes natively via media/png.py)"
        )
    return fake_decode_image(bytes(buf))


def resize_nearest(img: np.ndarray, out_hw: Tuple[int, int]) -> np.ndarray:
    """Nearest-neighbour resize in pure numpy (no image lib needed)."""
    h, w = img.shape[:2]
    rows = (np.arange(out_hw[0]) * h // out_hw[0]).clip(0, h - 1)
    cols = (np.arange(out_hw[1]) * w // out_hw[1]).clip(0, w - 1)
    return img[rows][:, cols]


class ImageFeaturizer:
    """Actor-pool kernel: (id, image binary) → decoded-shape metadata +
    small feature vector (channel means + 8-bin luminance histogram).

    ``strict=True`` demands a real decoder for every payload — PNG always
    has one (media/png.py); other formats need PIL and raise
    NotImplementedError at decode time when it's absent, marking exactly
    where libjpeg-class dependencies plug in."""

    def __init__(self, column: str = "media", id_column: str = "doc_id",
                 resize_to: Tuple[int, int] = (16, 16), strict: bool = False):
        self.column = column
        self.id_column = id_column
        self.resize_to = resize_to
        self.strict = strict
        self.pil = _try_import_pil()

    def _decode(self, buf: bytes) -> np.ndarray:
        return decode_image(buf, self.pil, self.strict)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        feats, heights, widths = [], [], []
        for buf in batch[self.column]:
            img = self._decode(buf)
            heights.append(img.shape[0])
            widths.append(img.shape[1])
            small = resize_nearest(img, self.resize_to).astype(np.float32)
            lum = small.mean(axis=2)
            hist, _ = np.histogram(lum, bins=8, range=(0, 256))
            feat = np.concatenate(
                [small.reshape(-1, 3).mean(axis=0) / 255.0, hist / max(1, lum.size)]
            )
            feats.append(feat.astype(np.float32))
        return pd.DataFrame(
            {
                self.id_column: batch[self.id_column],
                "height": pd.array(heights, dtype="int32"),
                "width": pd.array(widths, dtype="int32"),
                "features": feats,
            }
        )


_Y4M_MAGIC = b"YUV4MPEG2 "


def synth_media_y4m(payload: bytes, n_frames: int = 6,
                    size: Tuple[int, int] = (16, 16)) -> bytes:
    """Deterministic payload → real .y4m bytes: the payload's gradient
    image (synth_media_png's pixel math) panning one pixel per frame, so
    the clip has genuine motion and identical payloads yield
    byte-identical videos. Used by the catalog's video query to run the
    REAL decode path (media/y4m.py) end-to-end with no video library."""
    from schema_guru_ray.media.png import decode_png
    from schema_guru_ray.media.y4m import encode_y4m

    base = decode_png(synth_media_png(payload, size))
    frames = np.stack([np.roll(base, (i, 2 * i), axis=(0, 1)) for i in range(n_frames)])
    return encode_y4m(frames)


class FrameSampler:
    """Actor-pool kernel: (id, video binary) → one row per sampled frame
    (id, frame_idx, height, width, frame as PNG bytes).

    Y4M (YUV4MPEG2) payloads decode for REAL via media/y4m.py — streaming
    frame iteration, so unsampled frames never materialize as RGB.
    Compressed containers (mp4/mkv) need ffmpeg-class libraries and raise
    NotImplementedError, marking exactly where they plug in."""

    def __init__(self, every_n_frames: int = 30, column: str = "media",
                 id_column: str = "doc_id"):
        self.every_n_frames = every_n_frames
        self.column = column
        self.id_column = id_column

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        from schema_guru_ray.media.png import encode_png
        from schema_guru_ray.media.y4m import iter_y4m_frames

        ids, idxs, heights, widths, frames = [], [], [], [], []
        for doc_id, buf in zip(batch[self.id_column], batch[self.column]):
            buf = bytes(buf)
            if buf[: len(_Y4M_MAGIC)] != _Y4M_MAGIC:
                raise NotImplementedError(
                    "compressed video decode requires ffmpeg — not available "
                    "in this environment (Y4M decodes natively via media/y4m.py)"
                )
            for i, frame in enumerate(iter_y4m_frames(buf)):
                if i % self.every_n_frames:
                    continue
                ids.append(doc_id)
                idxs.append(i)
                heights.append(frame.shape[0])
                widths.append(frame.shape[1])
                frames.append(encode_png(frame))
        return pd.DataFrame(
            {
                self.id_column: pd.array(ids, dtype="int64"),
                "frame_idx": pd.array(idxs, dtype="int32"),
                "height": pd.array(heights, dtype="int32"),
                "width": pd.array(widths, dtype="int32"),
                "frame": frames,
            }
        )


def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis (same transform the MFCC stage uses)."""
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    M = np.cos(np.pi * k * (2 * m + 1) / (2.0 * n)) * np.sqrt(2.0 / n)
    M[0] /= np.sqrt(2.0)
    return M


_DCT32 = _dct_matrix(32)


def phash64(img: np.ndarray) -> np.uint64:
    """64-bit DCT perceptual hash (classic pHash): grayscale → 32×32 →
    2-D orthonormal DCT-II → top-left 8×8 low-frequency block → each
    coefficient vs the block median → 64 bits. Robust to resizing and
    small pixel noise; identical payloads hash identically."""
    g = img.astype(np.float64)
    if g.ndim == 3:
        g = g.mean(axis=2)
    g = resize_nearest(g, (32, 32))
    coeffs = _DCT32 @ g @ _DCT32.T
    block = coeffs[:8, :8].reshape(-1)
    bits = block > np.median(block)
    return np.uint64(sum(np.uint64(1) << np.uint64(i) for i, b in enumerate(bits) if b))


class ImagePHasher:
    """Actor-pool kernel: (id, image binary) → (id, phash uint64,
    chunk0..chunk3) rows, ready for the shared 16-bit-chunk pigeonhole
    pair machinery (stages/dedup.py hamming_pairs_from_chunked_hashes).
    Decoder contract identical to ImageFeaturizer (real PNG decode, PIL
    when available, deterministic fake otherwise; strict mode raises)."""

    def __init__(self, column: str = "media", id_column: str = "doc_id",
                 strict: bool = False):
        self.column = column
        self.id_column = id_column
        self.strict = strict
        self.pil = _try_import_pil()

    def _decode(self, buf: bytes) -> np.ndarray:
        return decode_image(buf, self.pil, self.strict)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        hashes = np.array(
            [phash64(self._decode(buf)) for buf in batch[self.column]],
            dtype=np.uint64,
        )
        out = {self.id_column: batch[self.id_column], "phash": hashes}
        for c in range(4):
            out[f"chunk{c}"] = (
                (hashes >> np.uint64(16 * c)) & np.uint64(0xFFFF)
            ).astype(np.int32)
        return pd.DataFrame(out)


def phash_dup_pairs(media_ds, max_hamming: int = 3, column: str = "media",
                    id_column: str = "doc_id", batch_size: int = 64):
    """Image near-dup pairs by perceptual hash: warm-task decode+hash
    (small batches — wide binary rows), then the exact chunk-pigeonhole
    pairing. Payload bytes are dropped at the hash stage; only (id, 8-byte
    hash) rows shuffle."""
    from schema_guru_ray.stages.dedup import hamming_pairs_from_chunked_hashes

    from schema_guru_ray.stages.warm import warm_kernel

    hashed = media_ds.map_batches(
        warm_kernel(ImagePHasher, column=column, id_column=id_column),
        batch_format="pandas", batch_size=batch_size,
    )
    return hamming_pairs_from_chunked_hashes(
        hashed, id_column=id_column, hash_column="phash", max_hamming=max_hamming
    )
