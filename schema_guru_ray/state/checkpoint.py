"""Resumable, append-aware partitioned execution (north rule: "resumable
from checkpoint with per-partition lineage + metrics").

The reference has no checkpointing at all (SURVEY.md §4). Our layout:

    out_dir/
      partition=<digest>/   ← digest of the chunk's sorted input files
        <outputs>.parquet ...
        _SUCCESS.json       ← lineage (input files + config hash) + metrics
      partition=<digest>/ ...
      _MANIFEST.json        ← run summary incl. the ``active`` digests,
                              written once every partition has committed
                              and before GC (tmp + rename)

Partitions are contiguous chunks of ``files_per_partition`` sorted input
files, named by content: the natural resumability unit for a 100 TB corpus
where each shard is independently re-creatable from its fragment list, and
one that survives appends — files that sort after the existing ones leave
every full chunk's digest, and so its checkpoint, untouched.

Dirty chunks run in plans of at most ``CHUNKS_PER_PLAN``: one ``process``
call (for validation, one Ray Data plan) computes every chunk of the plan
and leaves each chunk's outputs in its own ``.tmp-partition=<digest>``
sibling, staging plan-wide outputs in ``.tmp-partition=plan-<digest>``
first. The runner then commits the chunks one by one: ``_SUCCESS.json``
into the tmp dir, then an atomic rename over ``partition=<digest>``. A
crash therefore leaves each chunk of a plan either committed or visible
only as a tmp dir — never a half-trusted output — and the next run redoes
exactly the chunks that did not commit. On resume, partitions whose
``_SUCCESS.json`` exists AND matches the current config hash + input
lineage are skipped; a config change invalidates every checkpoint (a
resumed run never mixes configs — SURVEY.md §7.4).

A committed chunk is an immutable run, as in an LSM tree, and a plan is
one flush that builds many runs and commits each on its own: a chunk whose
membership changed is written under a new digest and the old one is left
behind as an orphan until ``gc_orphans`` collects it. Readers therefore
take the partition set from the run summary or the manifest's ``active``
list (:func:`active_dirs`), never from a ``partition=`` glob.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

SUCCESS = "_SUCCESS.json"
MANIFEST = "_MANIFEST.json"

# Default chunk size for every checkpointed entry point. Sized from the
# 120k-clip nightly-append corpus (jobs/incremental_append_stress.py: 64
# base + 11 appended shards, 4 files/chunk gave 17 chunks, and a +5% append
# re-ran 3 of them; BASELINE.md, round 5 session 7).
FILES_PER_PARTITION = 4

# Most dirty chunks one ``process`` call (one plan) is handed. A plan pays
# the fixed cost of a Ray Data execution once instead of once per chunk;
# the cap bounds what a crash in the middle of a plan redoes (64 files at
# the default chunk size). A nightly append fits one plan: the 1M-clip
# append of round 5 made 13 new chunks.
CHUNKS_PER_PLAN = 16


def config_hash(obj) -> str:
    """Stable digest of a (dataclass-ish or dict) config."""
    try:
        payload = json.dumps(obj, sort_keys=True, default=lambda o: vars(o))
    except TypeError:
        payload = repr(obj)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def partition_chunks(files: Sequence[str], files_per_partition: int) -> List[List[str]]:
    """Contiguous fixed-size chunks of the sorted file list. Appending
    files that sort after the existing ones leaves every full chunk
    untouched; only the trailing partial chunk (if any) and the new files'
    chunks need work. No files make no chunk."""
    files = sorted(files)
    k = max(1, int(files_per_partition))
    return [files[i:i + k] for i in range(0, len(files), k)]


def partition_digest(files: Sequence[str]) -> str:
    """Content address of a partition: digest of its sorted input list.
    The digest IS the directory name, so partition identity survives
    renumbering as the corpus grows."""
    payload = "\n".join(sorted(files))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def read_manifest(out_dir: str) -> Dict:
    """The last committed run summary of ``out_dir``; ``{}`` before any."""
    try:
        with open(os.path.join(out_dir, MANIFEST)) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def active_dirs(out_dir: str, active: Optional[Sequence[str]] = None) -> List[str]:
    """Partition dirs of the current run, in chunk order: ``active`` (a run
    summary's digests) or, when None, the committed manifest's."""
    if active is None:
        manifest = read_manifest(out_dir)
        if manifest and "active" not in manifest:
            raise ValueError(f"{out_dir}/{MANIFEST} predates content-addressed "
                             "partitions; rerun into it to rebuild the active set")
        active = manifest.get("active", [])
    return [os.path.join(out_dir, f"partition={d}") for d in active]


def active_files(out_dir: str, active: Optional[Sequence[str]] = None) -> List[str]:
    """Parquet files directly inside the active partitions, in chunk order."""
    return [os.path.join(d, n) for d in active_dirs(out_dir, active)
            for n in sorted(os.listdir(d)) if n.endswith(".parquet")]


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


def _write_manifest(out_dir: str, summary: Dict) -> None:
    """Commit ``_MANIFEST.json`` via a tmp file + ``os.replace``: consumers
    read the active set from it, so a crash mid-write must leave the
    previous manifest, never a truncated one."""
    path = os.path.join(out_dir, MANIFEST)
    with open(path + ".tmp", "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True, default=str)
    os.replace(path + ".tmp", path)


def run_incremental(
    input_files: Sequence[str],
    out_dir: str,
    process: Callable[[List[Tuple[List[str], str]], str], List[Dict]],
    cfg_hash: str,
    files_per_partition: int = FILES_PER_PARTITION,
    gc_orphans: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Run every chunk of ``files_per_partition`` sorted input files not
    already checkpointed under ``partition=<digest of its files>``, in plans
    of at most ``CHUNKS_PER_PLAN`` chunks, and commit each chunk atomically.
    Returns the run summary, also written to ``out_dir/_MANIFEST.json``.

    ``process(chunks, staging_dir) -> [metrics]`` gets a plan's chunks as
    ``(files, tmp_dir)`` pairs and returns one metrics dict per chunk, in
    order, once every chunk's outputs are in its ``tmp_dir``.
    ``staging_dir`` does not exist yet; ``process`` may write plan-wide
    outputs there and move each chunk's share into its ``tmp_dir``. The
    runner deletes it when ``process`` returns.

    A daily append therefore re-executes ONLY the chunks whose membership
    changed (the trailing partial chunk and the new files). Committed
    partitions whose digest is no longer active (e.g. a partial chunk that
    has since filled up) are reported as ``orphans`` and left on disk.
    ``gc_orphans=True`` deletes them, and sweeps the ``.tmp-partition=*``
    dirs crashed runs left behind (``summary["tmp_swept"]``), after the
    manifest naming the new active set is committed: a crash during GC
    never loses live work or leaves a manifest naming a deleted dir, it
    only delays reclamation."""
    os.makedirs(out_dir, exist_ok=True)
    parts = partition_chunks(input_files, files_per_partition)
    active = [partition_digest(files) for files in parts]
    summary = {"config_hash": cfg_hash, "partitions": [], "skipped": 0,
               "ran": 0, "orphaned": 0, "plans": 0, "mode": "incremental",
               "files_per_partition": int(files_per_partition)}
    dirty = []  # (digest, files, summary entry) of every chunk to run
    for digest, files in zip(active, parts):
        entry = {"digest": digest, "status": "skipped"}
        summary["partitions"].append(entry)
        if _success_matches(os.path.join(out_dir, f"partition={digest}"), cfg_hash, files):
            summary["skipped"] += 1
            if log:
                log(f"partition {digest}: checkpoint hit, skipping")
        else:
            dirty.append((digest, files, entry))

    for start in range(0, len(dirty), CHUNKS_PER_PLAN):
        plan = dirty[start:start + CHUNKS_PER_PLAN]
        chunks = []
        for digest, files, _ in plan:
            tmp_dir = os.path.join(out_dir, f".tmp-partition={digest}")
            shutil.rmtree(tmp_dir, ignore_errors=True)
            os.makedirs(tmp_dir)
            chunks.append((list(files), tmp_dir))
        staging = os.path.join(
            out_dir, f".tmp-partition=plan-{partition_digest([d for d, _, _ in plan])}")
        shutil.rmtree(staging, ignore_errors=True)
        t0 = time.perf_counter()
        metrics = process(chunks, staging)
        plan_wall = time.perf_counter() - t0
        shutil.rmtree(staging, ignore_errors=True)
        if len(metrics) != len(plan):
            raise ValueError(f"process returned {len(metrics)} metrics for "
                             f"{len(plan)} chunks")
        timing = {"wall_sec": round(plan_wall / len(plan), 3),
                  "plan_wall_sec": round(plan_wall, 3), "plan_chunks": len(plan)}
        for (digest, files, entry), (_, tmp_dir), m in zip(plan, chunks, metrics):
            meta = {"partition": digest, "inputs": sorted(files),
                    "config_hash": cfg_hash, **timing, "metrics": m}
            with open(os.path.join(tmp_dir, SUCCESS), "w") as f:
                json.dump(meta, f, indent=1, sort_keys=True)
            final_dir = os.path.join(out_dir, f"partition={digest}")
            shutil.rmtree(final_dir, ignore_errors=True)
            os.replace(tmp_dir, final_dir)
            summary["ran"] += 1
            entry.update(status="ran", **timing, metrics=m)
            if log:
                log(f"partition {digest}: done in {timing['wall_sec']}s "
                    f"({len(plan)}-chunk plan)")
        summary["plans"] += 1

    current = {p for p in os.listdir(out_dir) if p.startswith("partition=")}
    orphans = sorted(current - {f"partition={d}" for d in active})
    summary["orphaned"] = len(orphans)
    summary["orphans"] = orphans
    summary["active"] = active
    reclaim = []
    if gc_orphans:
        # every active partition is committed by now, so any .tmp- dir is
        # the leftover of a crashed run (its digest may never run again)
        stale = sorted(p for p in os.listdir(out_dir) if p.startswith(".tmp-partition="))
        reclaim = orphans + stale
        if orphans:
            summary["gc_removed"] = len(orphans)
        summary["tmp_swept"] = len(stale)
    _write_manifest(out_dir, summary)
    for name in reclaim:
        shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
    if log and reclaim:
        log(f"gc: removed {len(orphans)} orphaned partition(s), "
            f"{len(reclaim) - len(orphans)} stale tmp dir(s)")
    return summary
