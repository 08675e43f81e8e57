"""Cluster entry point for the resumable flagship AUDIO curation chain.

    ray job submit --working-dir /root/repo -- \
        python jobs/curate_clips_job.py CLIPS_DIR --out OUT_DIR \
        [--files-per-partition 4] [--sr-out 16000] [--sim-threshold 0.999]

Wraps pipelines/curate_clips.curate_clips_checkpointed: four atomic
checkpointed stages (validate-filter per chunk → global exact dedup →
global content-signature near-dup drops → per-chunk drop removal +
resample/normalize), each committing ``_SUCCESS`` manifests with input
lineage and the config hash — a crashed run reruns only unfinished
stages/chunks, and a config change invalidates downstream checkpoints.

No ray.init here when run under ``ray job submit`` (RAY_ADDRESS is set);
standalone it starts a local session.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)
os.environ["PYTHONPATH"] = _REPO + os.pathsep + os.environ.get("PYTHONPATH", "")

from schema_guru_ray.state.checkpoint import FILES_PER_PARTITION  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("input_dir", help="directory of clips-shaped parquet files")
    p.add_argument("--out", required=True)
    p.add_argument("--files-per-partition", type=int, default=FILES_PER_PARTITION)
    p.add_argument("--sr-out", type=int, default=16000)
    p.add_argument("--sim-threshold", type=float, default=0.999)
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            include_dashboard=False,
        )

    from schema_guru_ray.pipelines.curate_clips import (
        ClipCurationConfig,
        curate_clips_checkpointed,
    )

    files = sorted(glob.glob(os.path.join(args.input_dir, "*.parquet")))
    if not files:
        print(f"no parquet files under {args.input_dir}", file=sys.stderr)
        return 2
    cfg = ClipCurationConfig(
        sr_out=args.sr_out, dedup_threshold=args.sim_threshold
    )
    res = curate_clips_checkpointed(
        files, args.out, cfg=cfg, files_per_partition=args.files_per_partition,
        log=print,
    )
    n = res["result"].count()
    print(json.dumps({"n_curated": n, "stages": sorted(res["manifest"])}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
