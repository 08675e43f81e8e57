"""Cluster entry point for a resumable audio training-window export.

The shard-writing stage of a speech-training pipeline: chunk every
decodable clip into fixed-length windows (stages/audio_transform.py
WindowChunker, emit_bytes=True) and write them as partitioned parquet,
restartable after any failure.

    ray job submit --working-dir /root/repo -- \
        python jobs/window_export_job.py CLIPS_DIR --out OUT_DIR \
        [--window-ms 250] [--hop-ms 100] [--files-per-partition 4]

Design (the shape that holds at 10^12 clips):

* windows MULTIPLY payload (overlap factor ≈ window/hop), so the export
  never shuffles audio: each content-addressed checkpoint chunk streams
  its clips through the warm-task chunker and writes
  ``partition=<digest>/*.parquet`` locally — bytes go map-stage → writer,
  nothing else;
* chunks commit atomically via state/checkpoint.py ``_SUCCESS``
  manifests carrying input lineage, the window/hop config hash (a config
  change invalidates every checkpoint), window counts and payload bytes;
  a crashed run reruns only uncommitted chunks, an append only the
  changed ones;
* the reader is a plain ``read_parquet`` over the ``_MANIFEST.json``
  active partitions — window order within a partition is (clip_id,
  win_idx), a pure function of the input, so a resumed run is
  byte-identical.

No ray.init here when run under ``ray job submit`` (RAY_ADDRESS is set);
standalone it starts a local session.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)
os.environ["PYTHONPATH"] = _REPO + os.pathsep + os.environ.get("PYTHONPATH", "")

from schema_guru_ray.state.checkpoint import (  # noqa: E402
    FILES_PER_PARTITION,
    SUCCESS,
    active_dirs,
    config_hash,
    run_incremental,
)


def export_windows(input_files, out_dir: str, window_ms: int = 250,
                   hop_ms: int = 100,
                   files_per_partition: int = FILES_PER_PARTITION,
                   log=print) -> dict:
    """Resumable training-window export (see module docstring). Returns
    the run manifest."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from schema_guru_ray.stages.audio_transform import window_clips

    cfg = _cfg_hash(window_ms, hop_ms)

    def process(part_files, tmp_dir):
        ds = rd.read_parquet(part_files)
        windows = window_clips(
            ds, window_ms=window_ms, hop_ms=hop_ms, emit_bytes=True
        )
        windows.write_parquet(tmp_dir)
        n, nbytes = 0, 0
        for f in glob.glob(os.path.join(tmp_dir, "*.parquet")):
            md = pq.ParquetFile(f).metadata
            n += md.num_rows
            nbytes += os.path.getsize(f)
        return {"n_windows": n, "parquet_bytes": nbytes}

    return run_incremental(
        list(input_files), out_dir,
        lambda chunks, _: [process(f, d) for f, d in chunks], cfg,
        files_per_partition=files_per_partition, log=log,
    )


def _cfg_hash(window_ms: int, hop_ms: int) -> str:
    return config_hash(
        {"op": "export_windows", "window_ms": window_ms, "hop_ms": hop_ms}
    )


def _current_partitions(out_dir: str, window_ms: int, hop_ms: int):
    """The ``_MANIFEST.json`` active partition dirs whose ``_SUCCESS``
    carries THIS window/hop config hash — after a config change a crash
    mid-rerun can leave old-config partitions in the active set, and those
    must be neither counted nor read as current output."""
    import json

    cfg = _cfg_hash(window_ms, hop_ms)
    dirs = []
    for d in active_dirs(out_dir):
        with open(os.path.join(d, SUCCESS)) as fh:
            meta = json.load(fh)
        if meta.get("config_hash") == cfg:
            dirs.append((d, meta))
    return dirs


def read_windows(out_dir: str, window_ms: int = 250, hop_ms: int = 100):
    """Dataset over every committed partition's window rows, restricted to
    partitions committed under the given window/hop config."""
    import ray.data as rd

    files = []
    for d, _ in _current_partitions(out_dir, window_ms, hop_ms):
        files.extend(sorted(glob.glob(os.path.join(d, "*.parquet"))))
    return rd.read_parquet(files)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("input_dir", help="directory of clips-shaped parquet files")
    p.add_argument("--out", required=True)
    p.add_argument("--window-ms", type=int, default=250)
    p.add_argument("--hop-ms", type=int, default=100)
    p.add_argument("--files-per-partition", type=int, default=FILES_PER_PARTITION)
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            include_dashboard=False,
        )
    files = sorted(glob.glob(os.path.join(args.input_dir, "*.parquet")))
    if not files:
        print(f"no parquet files under {args.input_dir}", file=sys.stderr)
        return 2
    summary = export_windows(
        files, args.out, window_ms=args.window_ms, hop_ms=args.hop_ms,
        files_per_partition=args.files_per_partition,
    )
    # total from the COMMITTED _SUCCESS manifests, not the run summary —
    # skipped (checkpoint-hit) partitions carry no metrics in the summary,
    # so a resumed run would otherwise print windows=0; only manifests
    # carrying the CURRENT config hash count (stale-config leftovers don't)
    total = 0
    for _, meta in _current_partitions(args.out, args.window_ms, args.hop_ms):
        total += meta.get("metrics", {}).get("n_windows", 0)
    print(
        f"ran={summary['ran']} skipped={summary['skipped']} windows={total}"
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
