"""Nightly-append stress: quantify the append-aware checkpoint runner
(state/checkpoint.py run_incremental) on the validation pipeline.

Scenario: a corpus is validated in full; overnight ~5% more clips land
as new parquet shards that sort after the existing ones; the job is
resubmitted. Only the new chunks (and a possibly re-shaped trailing
partial chunk) decode; the comparison is a full rerun of the grown
corpus into a fresh out dir.

    python jobs/incremental_append_stress.py [--n 120000] [--append-pct 5]
                                             [--cpus 32] [--chunks 16]

Prints one JSON line with the initial wall, the append re-validation
wall, a fresh full-corpus rerun wall for comparison, and the resulting
speedup. Results recorded in BASELINE.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

WORK = "/tmp/graft_clips/incr_append"


def _write_renamed(ds, tmp_dir: str, dest_dir: str, prefix: str,
                   n_files: int = None) -> int:
    """write_parquet to a tmp dir, then move the shards into dest_dir
    under sortable names ({prefix}-0000.parquet …). ``n_files``
    consolidates the output (production appends land as few LARGE
    shards; tiny-shard appends pay one fixed chunk overhead each)."""
    shutil.rmtree(tmp_dir, ignore_errors=True)
    if n_files:
        ds = ds.repartition(n_files)
    ds.write_parquet(tmp_dir)
    files = sorted(glob.glob(os.path.join(tmp_dir, "*.parquet")))
    for i, f in enumerate(files):
        os.replace(f, os.path.join(dest_dir, f"{prefix}-{i:04d}.parquet"))
    shutil.rmtree(tmp_dir, ignore_errors=True)
    return len(files)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=120_000)
    ap.add_argument("--append-pct", type=float, default=5.0)
    ap.add_argument("--cpus", type=int, default=32)
    ap.add_argument("--chunks", type=int, default=16,
                    help="approximate number of checkpoint chunks")
    ap.add_argument("--append-files", type=int, default=None,
                    help="consolidate the appended clips into this many "
                         "shards (the production append shape)")
    ap.add_argument("--keep", action="store_true")
    args = ap.parse_args()

    import numpy as np
    import pyarrow as pa
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    from schema_guru_ray.pipelines.validate import (
        ValidationConfig,
        run_validation_checkpointed,
    )
    from schema_guru_ray.sources.clips import (
        SCALING_CFG,
        _batch_table,
        generate_rows,
    )

    def clips_range(lo: int, hi: int):
        """Deterministic clips with ids [lo, hi) — appended shards get
        fresh ids so dedupe/uniqueness stats stay realistic."""

        def gen(batch: pa.Table) -> pa.Table:
            idx = batch["id"].to_numpy().astype(np.int64) + lo
            return _batch_table(generate_rows(idx, SCALING_CFG))

        return rd.range(hi - lo).map_batches(
            gen, batch_format="pyarrow", batch_size=512)

    corpus = os.path.join(WORK, "corpus")
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(corpus)

    n_append = int(args.n * args.append_pct / 100.0)
    t0 = time.perf_counter()
    n_base_files = _write_renamed(
        clips_range(0, args.n), os.path.join(WORK, "gen"), corpus, "base")
    gen_sec = time.perf_counter() - t0
    fpp = max(1, round(n_base_files / args.chunks))

    cfg = ValidationConfig()
    out_dir = os.path.join(WORK, "out")
    t0 = time.perf_counter()
    s1 = run_validation_checkpointed(
        corpus, out_dir, cfg, files_per_partition=fpp)
    initial_sec = time.perf_counter() - t0
    assert s1["skipped"] == 0

    # overnight: ~append_pct% new clips land as shards sorting last
    n_new_files = _write_renamed(
        clips_range(args.n, args.n + n_append),
        os.path.join(WORK, "gen"), corpus, "zz-night",
        n_files=args.append_files)

    t0 = time.perf_counter()
    s2 = run_validation_checkpointed(
        corpus, out_dir, cfg, files_per_partition=fpp, gc_orphans=True)
    incr_sec = time.perf_counter() - t0

    # comparison: what a full resubmission costs (same chunking into a
    # fresh out dir, so nothing skips)
    t0 = time.perf_counter()
    s3 = run_validation_checkpointed(
        corpus, os.path.join(WORK, "out_full"), cfg, files_per_partition=fpp)
    full_sec = time.perf_counter() - t0

    n_total = args.n + n_append
    out = {
        "metric": "append-aware incremental re-validation (nightly +"
                  f"{args.append_pct:g}% append)",
        "n_base": args.n,
        "n_append": n_append,
        "num_cpus": args.cpus,
        "files_base": n_base_files,
        "files_append": n_new_files,
        "files_per_partition": fpp,
        "gen_sec": round(gen_sec, 1),
        "initial_sec": round(initial_sec, 1),
        "append_chunks_ran": s2["ran"],
        "append_chunks_skipped": s2["skipped"],
        "append_orphans_gcd": s2.get("gc_removed", 0),
        "incremental_sec": round(incr_sec, 1),
        "full_rerun_sec": round(full_sec, 1),
        "speedup_vs_full": round(full_sec / incr_sec, 1),
        "clips_revalidated": sum(
            p["metrics"]["n_clips"] for p in s2["partitions"]
            if p["status"] == "ran"),
        "n_total": n_total,
    }
    assert s3["ran"] == len(s3["partitions"])
    print(json.dumps(out))
    ray.shutdown()
    if not args.keep:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    main()
