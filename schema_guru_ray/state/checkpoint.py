"""Resumable partitioned execution (north rule: "resumable from checkpoint
with per-partition lineage + metrics").

The reference has no checkpointing at all (SURVEY.md §4). Our layout:

    out_dir/
      partition=0000/
        <outputs>.parquet ...
        _SUCCESS.json     ← lineage (input files + config hash) + metrics
      partition=0001/ ...
      _MANIFEST.json      ← run-level summary, written last (tmp + rename)

A partition directory is written to a ``.tmp-`` sibling and atomically
renamed, so a crash mid-partition leaves no half-trusted output. On resume,
partitions whose ``_SUCCESS.json`` exists AND matches the current config
hash + input lineage are skipped; a config change invalidates every
checkpoint (a resumed run never mixes configs — SURVEY.md §7.4).

Partitions are input-file groups: the natural resumability unit for a
100 TB corpus where each shard is independently re-creatable from its
fragment list.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Callable, Dict, List, Optional, Sequence

SUCCESS = "_SUCCESS.json"
MANIFEST = "_MANIFEST.json"


def config_hash(obj) -> str:
    """Stable digest of a (dataclass-ish or dict) config."""
    try:
        payload = json.dumps(obj, sort_keys=True, default=lambda o: vars(o))
    except TypeError:
        payload = repr(obj)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def partition_inputs(files: Sequence[str], num_partitions: int) -> List[List[str]]:
    """Deterministic grouping of input files into partitions."""
    files = sorted(files)
    num_partitions = max(1, min(num_partitions, len(files)))
    return [list(files[i::num_partitions]) for i in range(num_partitions)]


def _partition_dir(out_dir: str, idx: int) -> str:
    return os.path.join(out_dir, f"partition={idx:04d}")


def _success_matches(final_dir: str, cfg_hash: str, files: Sequence[str]) -> bool:
    """True iff the partition dir holds a committed ``_SUCCESS.json`` whose
    config hash AND input lineage match the current run."""
    p = os.path.join(final_dir, SUCCESS)
    if not os.path.exists(p):
        return False
    try:
        with open(p) as f:
            meta = json.load(f)
    except (OSError, ValueError):
        return False
    return meta.get("config_hash") == cfg_hash and meta.get("inputs") == sorted(files)


def is_partition_done(out_dir: str, idx: int, cfg_hash: str, files: Sequence[str]) -> bool:
    return _success_matches(_partition_dir(out_dir, idx), cfg_hash, files)


def _execute_partitions(
    parts,
    out_dir: str,
    process_partition: Callable[[List[str], str], Dict],
    cfg_hash: str,
    summary: Dict,
    id_key: str,
    log: Optional[Callable[[str], None]],
) -> None:
    """Shared commit protocol for both runners: for each ``(name, ident,
    files)`` (name = the ``partition=`` dir suffix, ident = the summary
    id value), skip on a matching ``_SUCCESS`` lineage, else run into a
    ``.tmp-`` sibling and atomically rename. Any future change to the
    commit protocol (fsync, crash-window handling, manifest fields) lands
    here ONCE for both the striped and the incremental runner."""
    for name, ident, files in parts:
        final_dir = os.path.join(out_dir, f"partition={name}")
        if _success_matches(final_dir, cfg_hash, files):
            summary["skipped"] += 1
            summary["partitions"].append({id_key: ident, "status": "skipped"})
            if log:
                log(f"partition {ident}: checkpoint hit, skipping")
            continue
        tmp_dir = os.path.join(out_dir, f".tmp-partition={name}")
        shutil.rmtree(tmp_dir, ignore_errors=True)
        os.makedirs(tmp_dir)
        t0 = time.time()
        metrics = process_partition(list(files), tmp_dir)
        meta = {
            "partition": ident,
            "inputs": sorted(files),
            "config_hash": cfg_hash,
            "wall_sec": round(time.time() - t0, 3),
            "metrics": metrics,
        }
        with open(os.path.join(tmp_dir, SUCCESS), "w") as f:
            json.dump(meta, f, indent=1, sort_keys=True)
        shutil.rmtree(final_dir, ignore_errors=True)
        os.replace(tmp_dir, final_dir)
        summary["ran"] += 1
        summary["partitions"].append(
            {id_key: ident, "status": "ran", "wall_sec": meta["wall_sec"],
             "metrics": metrics}
        )
        if log:
            log(f"partition {ident}: done in {meta['wall_sec']}s")


def _write_manifest(out_dir: str, summary: Dict) -> None:
    """Commit ``_MANIFEST.json`` via a tmp file + ``os.replace``: consumers
    read the active set from it, so a crash mid-write must leave the
    previous manifest, never a truncated one."""
    path = os.path.join(out_dir, MANIFEST)
    with open(path + ".tmp", "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True, default=str)
    os.replace(path + ".tmp", path)


def run_partitioned(
    input_files: Sequence[str],
    out_dir: str,
    process_partition: Callable[[List[str], str], Dict],
    cfg_hash: str,
    num_partitions: int = 8,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Run ``process_partition(files, tmp_dir) -> metrics`` for every
    partition not already checkpointed; commit each atomically. Returns the
    run manifest (also written to ``out_dir/_MANIFEST.json``)."""
    os.makedirs(out_dir, exist_ok=True)
    parts = partition_inputs(input_files, num_partitions)
    summary = {"config_hash": cfg_hash, "partitions": [], "skipped": 0, "ran": 0}
    _execute_partitions(
        [(f"{idx:04d}", idx, files) for idx, files in enumerate(parts)],
        out_dir, process_partition, cfg_hash, summary, "idx", log,
    )
    _write_manifest(out_dir, summary)
    return summary


def partition_chunks(files: Sequence[str], files_per_partition: int) -> List[List[str]]:
    """Contiguous fixed-size chunks of the sorted file list — the
    partitioning for APPEND-MOSTLY corpora. Unlike the round-robin stripes
    of :func:`partition_inputs` (where one appended file shifts EVERY
    stripe's membership and invalidates the whole run), appending files
    that sort after the existing ones leaves every full chunk untouched;
    only the trailing partial chunk (if any) and the new files' chunks
    need work."""
    files = sorted(files)
    k = max(1, int(files_per_partition))
    return [files[i:i + k] for i in range(0, len(files), k)]


def partition_digest(files: Sequence[str]) -> str:
    """Content address of a partition: digest of its sorted input list.
    The digest IS the directory name, so partition identity survives
    renumbering as the corpus grows."""
    payload = "\n".join(sorted(files))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_incremental(
    input_files: Sequence[str],
    out_dir: str,
    process_partition: Callable[[List[str], str], Dict],
    cfg_hash: str,
    files_per_partition: int,
    gc_orphans: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Append-aware variant of :func:`run_partitioned`: partitions are
    content-addressed (``partition=<digest of sorted inputs>``) contiguous
    chunks of ``files_per_partition`` files. A daily append to a 100 TB
    corpus therefore re-executes ONLY the chunks whose membership changed
    (the trailing partial chunk and the new files), instead of
    invalidating every stripe. Previously-committed partitions whose
    digest is no longer part of the current partitioning (e.g. a partial
    chunk that has since filled up) are reported as ``orphaned`` and left
    on disk — consumers must read the active set from ``_MANIFEST.json``,
    never by globbing partition dirs. ``gc_orphans=True`` deletes them
    after the active set is fully committed (delete-last ordering: a
    crash during GC never loses live work, only delays reclamation), and
    sweeps the ``.tmp-partition=*`` dirs crashed runs left behind
    (``summary["tmp_swept"]``)."""
    os.makedirs(out_dir, exist_ok=True)
    parts = partition_chunks(input_files, files_per_partition)
    active = [partition_digest(files) for files in parts]
    summary = {"config_hash": cfg_hash, "partitions": [], "skipped": 0,
               "ran": 0, "orphaned": 0, "mode": "incremental",
               "files_per_partition": int(files_per_partition)}
    _execute_partitions(
        [(d, d, files) for d, files in zip(active, parts)],
        out_dir, process_partition, cfg_hash, summary, "digest", log,
    )
    current = {p for p in os.listdir(out_dir) if p.startswith("partition=")}
    orphans = sorted(current - {f"partition={d}" for d in active})
    summary["orphaned"] = len(orphans)
    summary["orphans"] = orphans
    summary["active"] = active
    if gc_orphans:
        # every active partition is committed by now, so any .tmp- dir is
        # the leftover of a crashed run (its digest may never run again)
        stale = sorted(p for p in os.listdir(out_dir) if p.startswith(".tmp-partition="))
        for o in orphans + stale:
            shutil.rmtree(os.path.join(out_dir, o), ignore_errors=True)
        if orphans:
            summary["gc_removed"] = len(orphans)
        summary["tmp_swept"] = len(stale)
        if log and (orphans or stale):
            log(f"gc: removed {len(orphans)} orphaned partition(s), "
                f"{len(stale)} stale tmp dir(s)")
    _write_manifest(out_dir, summary)
    return summary
