"""Deterministic synthetic audio-clip table (FIXTURES.md §A).

Schema is exactly the BASELINE.json ``input_hint``:

    clip_id:string, bytes:binary, sr_hz:int32, dur_ms:int32,
    codec:string, transcript:string

Every row is a pure function of ``(seed, row_index)``; content columns
(sr/dur/pcm/transcript) are further keyed only by ``clip_id`` so an injected
duplicate row is a byte-identical duplicate (unless another row-keyed
injection independently perturbs one copy). Violations are injected at
configurable rates and the ground-truth labels can be emitted alongside for
tests (``with_labels=True``).

Scale path: :func:`clips_dataset` builds the table as a Ray Dataset via
``ray.data.range(n).map_batches(generator)`` — generation parallelizes over
blocks and streams straight to parquet without ever materializing the corpus
(:func:`write_clips`). Small-scale test path: :func:`generate_clips_table`
builds a pyarrow Table in-process with the same bytes.
"""

from __future__ import annotations

import hashlib
import math
import os
import uuid
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import pyarrow as pa

from schema_guru_ray.audio import synth
from schema_guru_ray.audio.wav import encode_wav

# bump when the synthesis math changes bytes (keys the _ensure cache so
# stale corpora regenerate): 2 = float32 reference_pcm, 3 = digest-derived
# signal params + transcripts (audio/synth.py)
GEN_VERSION = 3

SR_VALUES = (8000, 16000, 22050, 44100, 48000)
SR_WEIGHTS = np.array([1.0 / (r + 1) ** 1.6 for r in range(len(SR_VALUES))])
SR_WEIGHTS /= SR_WEIGHTS.sum()

CODECS = ("pcm_s16le", "flac", "opus", "mp3")
CODEC_WEIGHTS = np.array([1.0 / (r + 1) ** 1.2 for r in range(len(CODECS))])
CODEC_WEIGHTS /= CODEC_WEIGHTS.sum()

INVALID_SRS = (0, -1, 96001)

CLIPS_SCHEMA = pa.schema(
    [
        ("clip_id", pa.string()),
        ("bytes", pa.binary()),
        ("sr_hz", pa.int32()),
        ("dur_ms", pa.int32()),
        ("codec", pa.string()),
        ("transcript", pa.string()),
    ]
)


@dataclass(frozen=True)
class ClipsConfig:
    """Violation-injection rates (per row). Defaults follow FIXTURES.md §A."""

    seed: int = 42
    rate_dup: float = 1e-4
    rate_corrupt: float = 1e-3  # truncated/garbled audio, transcript nulled (consistent)
    rate_ref_transcript_on_bad: float = 5e-4  # corrupt audio but transcript kept
    rate_ref_null_on_good: float = 5e-4  # decodable audio but transcript null
    rate_snr: float = 1e-3  # decodable but noisy → SNR < 30 dB
    rate_transcript_mismatch: float = 1e-3
    rate_sr_invalid: float = 5e-4  # sr_hz column out of the valid enum
    rate_dur_mismatch: float = 1e-3
    min_dur_ms: int = 20
    max_dur_ms: int = 2000
    median_dur_ms: float = 150.0


def _clip_id_for(seed: int, index: int) -> str:
    d = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=16).digest()
    return str(uuid.UUID(bytes=d, version=4))


def _content_rng(clip_id: str, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(synth.clip_seed(clip_id) ^ salt))


def _content_for(clip_id: str, cfg: ClipsConfig):
    """(sr_hz, n_samples, dur_ms, transcript) — pure function of clip_id.
    The PCM is the reference signal of ``(clip_id, sr_hz, n_samples)``,
    synthesized for a whole batch of rows at once."""
    rng = _content_rng(clip_id, 0xC0_47E47)
    sr = int(SR_VALUES[rng.choice(len(SR_VALUES), p=SR_WEIGHTS)])
    dur = float(
        np.clip(
            rng.lognormal(np.log(cfg.median_dur_ms), 0.8), cfg.min_dur_ms, cfg.max_dur_ms
        )
    )
    n_samples = max(1, round(dur * sr / 1000.0))
    dur_ms = round(n_samples / sr * 1000.0)
    transcript = synth.reference_transcript(clip_id)
    return sr, n_samples, dur_ms, transcript


def generate_rows(indices: np.ndarray, cfg: ClipsConfig, with_labels: bool = False):
    """Generate rows for the given global indices. Returns a dict of column
    lists (+ ``violations`` ground-truth list-of-lists when requested)."""
    cols = {k: [] for k in ("clip_id", "bytes", "sr_hz", "dur_ms", "codec", "transcript")}
    labels: List[List[str]] = []
    # two passes: the row draws up to each clip's content, then (after one
    # batch synthesis of every row's reference) the rest; each row keeps
    # its own injection rng, so its draws come in the same order
    drawn = []
    for i in indices:
        i = int(i)
        irng = np.random.Generator(
            np.random.PCG64(
                int.from_bytes(
                    hashlib.blake2b(f"inject:{cfg.seed}:{i}".encode(), digest_size=8).digest(),
                    "little",
                )
            )
        )
        row_labels: List[str] = []

        clip_id = _clip_id_for(cfg.seed, i)
        if i > 0 and irng.random() < cfg.rate_dup:
            j = max(0, i - 1 - int(irng.integers(0, min(i, 1000))))
            clip_id = _clip_id_for(cfg.seed, j)
            row_labels.append("duplicate_clip_id")

        sr, n_samples, dur_ms, transcript = _content_for(clip_id, cfg)
        codec = CODECS[int(_content_rng(clip_id, 0xC0DEC).choice(len(CODECS), p=CODEC_WEIGHTS))]
        drawn.append((irng, row_labels, clip_id, sr, n_samples, dur_ms, transcript, codec))

    ids, srs, lengths = ([d[k] for d in drawn] for k in (2, 3, 4))
    pcms = synth.reference_pcms(ids, srs, lengths)
    for (irng, row_labels, clip_id, sr, _, dur_ms, transcript, codec), pcm in zip(drawn, pcms):
        corrupt = irng.random() < cfg.rate_corrupt
        ref_on_bad = irng.random() < cfg.rate_ref_transcript_on_bad
        ref_on_good = irng.random() < cfg.rate_ref_null_on_good
        noisy = irng.random() < cfg.rate_snr
        t_mismatch = irng.random() < cfg.rate_transcript_mismatch
        sr_invalid = irng.random() < cfg.rate_sr_invalid
        dur_mismatch = irng.random() < cfg.rate_dur_mismatch

        if noisy and not (corrupt or ref_on_bad):
            noise = irng.normal(0.0, 0.25 * synth.AMPLITUDE, size=pcm.shape)
            pcm = np.clip(pcm.astype(np.float64) + noise, -32768, 32767).astype(np.int16)
            row_labels.append("snr_below_threshold")

        buf = encode_wav(pcm, sr)

        if corrupt or ref_on_bad:
            cut = int(irng.integers(4, 30))
            buf = buf[:cut]  # truncated header/payload → not decodable
            if ref_on_bad:
                # transcript kept on purpose → referential violation (plus the
                # undecodable flag itself, matching ClipValidator output)
                row_labels.append("undecodable_audio")
                row_labels.append("transcript_on_undecodable")
            else:
                transcript = None
                row_labels.append("undecodable_audio")
        elif ref_on_good:
            transcript = None
            row_labels.append("null_transcript_on_decodable")
        elif t_mismatch:
            transcript = transcript + " extraneous"
            row_labels.append("transcript_mismatch")

        sr_col = sr
        if sr_invalid:
            sr_col = int(INVALID_SRS[int(irng.integers(0, len(INVALID_SRS)))])
            row_labels.append("sr_out_of_range")

        dur_col = dur_ms
        if dur_mismatch:
            dur_col = dur_ms + int(irng.integers(50, 500))
            row_labels.append("dur_inconsistent")

        cols["clip_id"].append(clip_id)
        cols["bytes"].append(buf)
        cols["sr_hz"].append(sr_col)
        cols["dur_ms"].append(dur_col)
        cols["codec"].append(codec)
        cols["transcript"].append(transcript)
        labels.append(row_labels)
    if with_labels:
        return cols, labels
    return cols


def _batch_table(cols) -> pa.Table:
    return pa.Table.from_arrays(
        [
            pa.array(cols["clip_id"], pa.string()),
            pa.array(cols["bytes"], pa.binary()),
            pa.array(cols["sr_hz"], pa.int32()),
            pa.array(cols["dur_ms"], pa.int32()),
            pa.array(cols["codec"], pa.string()),
            pa.array(cols["transcript"], pa.string()),
        ],
        schema=CLIPS_SCHEMA,
    )


def generate_clips_table(n: int, cfg: ClipsConfig = ClipsConfig(), with_labels: bool = False):
    """In-process generation (tests / small scale)."""
    out = generate_rows(np.arange(n), cfg, with_labels=with_labels)
    if with_labels:
        cols, labels = out
        return _batch_table(cols), labels
    return _batch_table(out)


def clips_dataset(n: int, cfg: ClipsConfig = ClipsConfig(), parallelism: int = -1):
    """The clips corpus as a streaming Ray Dataset (scale path). Each block
    generates its rows from their global indices — deterministic under any
    block split, no driver-side materialization."""
    import ray.data as rd

    def gen(batch: pa.Table) -> pa.Table:
        return _batch_table(generate_rows(batch["id"].to_numpy(), cfg))

    ds = rd.range(n, override_num_blocks=parallelism if parallelism > 0 else None)
    return ds.map_batches(gen, batch_format="pyarrow", batch_size=512)


def clips_path_for_sf(sf_dir: str) -> str:
    """Cache dir for a given testdata sf dir (e.g. .../sf0.01 → 6k clips)."""
    sf = os.path.basename(os.path.normpath(sf_dir)).replace("sf", "")
    return f"/tmp/graft_clips/sf{sf}"


def n_clips_for_sf(sf_dir: str) -> int:
    sf = float(os.path.basename(os.path.normpath(sf_dir)).replace("sf", ""))
    return max(100, int(sf * 600_000))


def ensure_clips(sf_dir: str, cfg: ClipsConfig = ClipsConfig()) -> str:
    """Generate-and-cache the clips parquet for a testdata scale factor.
    Returns the parquet directory. Resumable: skips when the _DONE marker
    exists."""
    return _ensure(clips_path_for_sf(sf_dir), n_clips_for_sf(sf_dir), cfg)


def _ensure(path: str, n: int, cfg: ClipsConfig) -> str:
    """Atomic cache commit: generate into a tmp sibling, rename into place,
    then mark _DONE with the generation key. A crash mid-write leaves only
    the tmp dir (cleaned on retry); a _DONE with a different key (n/config
    changed) invalidates the cache."""
    import shutil

    key = f"gen={GEN_VERSION} n={n} cfg={sorted(vars(cfg).items())!r}"
    done = os.path.join(path, "_DONE")
    if os.path.exists(done):
        with open(done) as f:
            if f.read().strip() == key:
                return path
        shutil.rmtree(path, ignore_errors=True)
    tmp = path.rstrip("/") + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    ds = clips_dataset(n, cfg)
    ds.write_parquet(tmp)
    with open(os.path.join(tmp, "_DONE"), "w") as f:
        f.write(key + "\n")
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    return path


# Scaling-evidence corpus: longer clips (median 1 s) so decode+SNR compute
# dominates fixed pipeline overhead — the regime a real 10^12-clip corpus is
# in. Used by `bench.py --scaling` at two parallelism levels.
SCALING_N_CLIPS = 250_000
SCALING_CFG = ClipsConfig(median_dur_ms=1000.0, max_dur_ms=4000)


def ensure_scaling_clips() -> str:
    return _ensure("/tmp/graft_clips/scaling", SCALING_N_CLIPS, SCALING_CFG)


def read_clips(path_or_files, columns=None, include_paths=False):
    """Read a clips table (a directory, or a list of parquet files) as a
    Dataset, in the number of read tasks :func:`read_task_count` picks from
    the bytes to be read.

    The rule: with ``n_files`` files, ``cpus`` cluster CPUs and ``B`` the
    uncompressed bytes of the selected ``columns`` (summed from the parquet
    footers, so sizing reads metadata only), fewer files than CPUs keep
    Ray's own sizing; otherwise the read runs in
    ``min(n_files, max(2 * cpus, ceil(B / target_max_block_size)))``
    tasks, ``target_max_block_size`` being Ray Data's own block target
    (128 MB by default), so there is no knob here.

    * The ``2 * cpus`` floor is Ray's own (``_autodetect_parallelism``):
      every CPU gets a read task even when the bytes would fit one block,
      and a slow file does not leave the others idle. What the rule drops
      is Ray's 200-block / 1 MB-minimum term, which split each small
      shard into blocks of its own and paid one Ray task per block in
      every stage after it (24 one-file tasks for the 80 MB validate
      benchmark corpus, where 2 do the work on one CPU).
    * A file is never split across tasks: ``override_num_blocks`` is at
      most the file count, and Ray hands each read task whole files. On
      the 250k-clip corpus (~150 MB shards) Ray's default split each shard
      into 4 blocks, and one block per file measured 8-10% faster end to
      end at every ladder parallelism (BASELINE.md round 5). Bytes over
      ``target_max_block_size`` per file still give one task per file.

    ``include_paths=True`` adds Ray's ``path`` column (the checkpoint plan
    tags each row with its chunk from it). The deployment format is Lance
    (BASELINE.json input_hint), read through ``ray.data.read_lance`` when
    the lance package is importable and the input is a directory; this
    container ships no lance, so the fixtures are parquet with the same
    schema, and the rest of the pipeline only sees Arrow batches."""
    import ray.data as rd

    if isinstance(path_or_files, str) and not include_paths:
        try:
            import lance  # noqa: F401

            return rd.read_lance(path_or_files, columns=columns)
        except ImportError:
            pass
    files = _parquet_files(path_or_files)
    tasks = read_task_count(len(files), _cluster_cpus(), _column_bytes(files, columns))
    return rd.read_parquet(path_or_files, columns=columns,
                           include_paths=include_paths, override_num_blocks=tasks)


def read_task_count(n_files: int, cpus: int, nbytes: int) -> Optional[int]:
    """Read tasks for ``n_files`` files holding ``nbytes`` uncompressed
    bytes on ``cpus`` CPUs (see :func:`read_clips`); None keeps Ray's own
    sizing."""
    import ray.data as rd

    cpus = max(cpus, 1)
    if n_files < cpus:
        return None
    block = rd.DataContext.get_current().target_max_block_size
    by_bytes = math.ceil(nbytes / block) if block else 1
    return min(n_files, max(2 * cpus, by_bytes))


def _parquet_files(path_or_files) -> List[str]:
    import glob as _glob

    if isinstance(path_or_files, str):
        if os.path.isdir(path_or_files):
            return sorted(_glob.glob(os.path.join(path_or_files, "*.parquet")))
        return [path_or_files]
    return list(path_or_files)


def _column_bytes(files: List[str], columns=None) -> int:
    """Uncompressed bytes of ``columns`` (every column when None) in
    ``files``, from the parquet footers."""
    import pyarrow.parquet as pq

    wanted = None if columns is None else set(columns)
    total = 0
    for f in files:
        meta = pq.read_metadata(f)
        for rg in range(meta.num_row_groups):
            group = meta.row_group(rg)
            for c in range(group.num_columns):
                chunk = group.column(c)
                if wanted is None or chunk.path_in_schema.split(".", 1)[0] in wanted:
                    total += chunk.total_uncompressed_size
    return total


def _cluster_cpus() -> int:
    """The cluster's CPUs, or 0 when no Ray session is up yet."""
    import ray

    return int(ray.cluster_resources().get("CPU", 0)) if ray.is_initialized() else 0
