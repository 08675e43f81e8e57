"""Cluster entry point for a resumable deterministic shuffled export.

The last mile of a training-data pipeline: write the curated corpus back
out in a REPRODUCIBLE shuffled order, restartable after any failure.

    ray job submit --working-dir /root/repo -- \
        python jobs/export_job.py INPUT_DIR --out OUT_DIR \
        [--id-column doc_id] [--files-per-partition 4] [--shards 64]

Design (the shape that holds at 10^12 rows):

* every row gets a content-addressed shuffle key ``md5(id)``; its output
  shard is the key's first hex byte modulo ``--shards``. The key — not
  ``random_shuffle`` — makes the global order a pure function of the data,
  so a resumed or re-run export produces byte-identical shards;
* input files are grouped into content-addressed checkpoint chunks
  (state/checkpoint.py): each chunk streams its rows through the keying
  stage and writes ``partition=<digest>/shard=SS/*.parquet``, sorted by
  (key, id) WITHIN each fragment, then commits an atomic ``_SUCCESS``
  manifest (lineage + per-shard row counts). A crashed run reruns only
  uncommitted chunks, an append only the changed ones;
* a reader consumes shard-major: for each shard, merge the fragments of
  the ``_MANIFEST.json`` active partitions by (key, id) — an
  O(#fragments) streaming merge, no global sort anywhere. Global shuffled
  order = shard order + in-shard key order.

No ray.init here when run under ``ray job submit`` (RAY_ADDRESS is set);
standalone it starts a local session.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import sys

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)
os.environ["PYTHONPATH"] = _REPO + os.pathsep + os.environ.get("PYTHONPATH", "")

import pandas as pd  # noqa: E402

from schema_guru_ray.state.checkpoint import (  # noqa: E402
    FILES_PER_PARTITION,
    active_dirs,
    config_hash,
    run_incremental,
)


def export_shuffled(input_files, out_dir: str, id_column: str = "doc_id",
                    files_per_partition: int = FILES_PER_PARTITION,
                    num_shards: int = 64, log=print) -> dict:
    """Resumable shuffled export (see module docstring). Returns the run
    manifest."""
    import ray.data as rd

    cfg = config_hash(
        {"op": "export_shuffled", "id_column": id_column, "shards": num_shards}
    )

    def key_batch(b: pd.DataFrame) -> pd.DataFrame:
        h = [hashlib.md5(str(i).encode()).hexdigest() for i in b[id_column]]
        b = b.copy()
        b["__shuffle_key"] = h
        b["__shard"] = [int(x[:2], 16) % num_shards for x in h]
        return b

    def process(part_files, tmp_dir):
        ds = rd.read_parquet(part_files).map_batches(key_batch, batch_format="pandas")
        shard_counts = {}

        def write_shard(g: pd.DataFrame) -> pd.DataFrame:
            shard = int(g["__shard"].iloc[0])
            g = g.sort_values(["__shuffle_key", id_column])
            sdir = os.path.join(tmp_dir, f"shard={shard:02d}")
            os.makedirs(sdir, exist_ok=True)
            g.drop(columns=["__shard"]).to_parquet(
                os.path.join(sdir, "part.parquet"), index=False
            )
            return pd.DataFrame({"shard": [shard], "n": [len(g)]})

        counts = (
            ds.groupby("__shard")
            .map_groups(write_shard, batch_format="pandas")
            .to_pandas()
        )
        if counts.empty:
            # an empty input partition still commits a (0-row) manifest so
            # resume can tell "done, nothing there" from "never ran" — Ray
            # returns a bare 0-column frame on empty, hence the reindex
            counts = counts.reindex(columns=["shard", "n"])
        shard_counts = dict(zip(counts["shard"].astype(int), counts["n"].astype(int)))
        return {"n_rows": int(counts["n"].sum()),
                "shards": {str(k): v for k, v in sorted(shard_counts.items())}}

    return run_incremental(
        list(input_files), out_dir,
        lambda chunks, _: [process(f, d) for f, d in chunks], cfg,
        files_per_partition=files_per_partition, log=log,
    )


def read_shard(out_dir: str, shard: int, id_column: str = "doc_id",
               epoch: int = 0) -> pd.DataFrame:
    """Reader half of the contract: one shard in its global shuffled order
    (streaming merge of the active partitions' fragments by (key, id)).

    ``epoch`` gives multi-epoch training loops a DIFFERENT but fully
    reproducible order per epoch WITHOUT rewriting any data: epoch 0 is
    the written md5(id) order; epoch k > 0 re-keys each row as
    ``md5(key + ':' + k)`` and sorts by that — an in-memory permutation of
    one shard (shards are sized to fit a reader by construction). The
    multiset of rows is identical across epochs; only the order changes.
    Shard-to-reader ASSIGNMENT stays epoch-independent, so a resumed epoch
    re-reads exactly the shards it owned."""
    frags = [f for d in active_dirs(out_dir)
             for f in sorted(glob.glob(os.path.join(d, f"shard={shard:02d}", "*.parquet")))]
    if not frags:
        return pd.DataFrame()
    df = pd.concat([pd.read_parquet(f) for f in frags], ignore_index=True)
    if epoch:
        ek = [
            hashlib.md5(f"{k}:{epoch}".encode()).hexdigest()
            for k in df["__shuffle_key"]
        ]
        return (
            df.assign(__epoch_key=ek)
            .sort_values(["__epoch_key", id_column])
            .drop(columns="__epoch_key")
            .reset_index(drop=True)
        )
    return df.sort_values(["__shuffle_key", id_column]).reset_index(drop=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="resumable deterministic shuffled export")
    ap.add_argument("input", help="parquet file, directory, or glob")
    ap.add_argument("--out", required=True)
    ap.add_argument("--id-column", default="doc_id")
    ap.add_argument("--files-per-partition", type=int, default=FILES_PER_PARTITION)
    ap.add_argument("--shards", type=int, default=64)
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, ignore_reinit_error=True)

    if os.path.isdir(args.input):
        files = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
    else:
        files = sorted(glob.glob(args.input)) or [args.input]
    summary = export_shuffled(
        files, args.out, id_column=args.id_column,
        files_per_partition=args.files_per_partition, num_shards=args.shards,
    )
    print(json.dumps({"ran": summary["ran"], "skipped": summary["skipped"]}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
