"""Cluster entry point for the flagship validation run.

Submit to a fixed-size Ray cluster (the north rule's deployment shape):

    ray job submit --working-dir /root/repo -- \
        python jobs/validate_job.py CLIPS_PATH --out OUT_DIR \
        [--files-per-partition 4] [--gc-orphans] [--baseline BASELINE.json]

Inside a `ray job` the driver connects to the existing cluster via
RAY_ADDRESS (auto-set by the job server); standalone it starts a local
session. The run is checkpointed per content-addressed chunk of input
files (atomic _SUCCESS manifests with lineage + metrics) — resubmitting
the identical job after a failure skips finished chunks, and a
resubmission over an appended corpus re-validates only the changed ones.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys

# make the repo importable regardless of cwd — for the driver (sys.path)
# AND the Ray workers it spawns (PYTHONPATH is inherited; under
# `ray job submit --working-dir` the job server handles this instead)
_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)
os.environ["PYTHONPATH"] = _REPO + os.pathsep + os.environ.get("PYTHONPATH", "")

from schema_guru_ray.state.checkpoint import FILES_PER_PARTITION, active_dirs  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("clips_path")
    p.add_argument("--out", required=True)
    p.add_argument("--files-per-partition", type=int,
                   default=FILES_PER_PARTITION,
                   help="input files per content-addressed checkpoint "
                        "chunk; nightly appends re-validate only changed "
                        "chunks")
    p.add_argument("--gc-orphans", action="store_true",
                   help="delete superseded (boundary-shifted) partitions "
                        "after the active set is fully committed")
    p.add_argument("--baseline",
                   help="baseline sketch store (JSON from --write-baseline; "
                        "legacy .pkl also accepted)")
    p.add_argument("--write-baseline", metavar="PATH",
                   help="after the run, build a baseline sketch store from "
                        "this corpus and write it to PATH (JSON, atomic)")
    p.add_argument("--drift-report", metavar="PATH",
                   help="with --baseline: score every partition's committed "
                        "sketches against the baseline and write a "
                        "(partition, codec, col, psi, ks, drifted) parquet "
                        "to PATH — localizes WHICH chunk drifted")
    p.add_argument("--num-cpus", type=int, default=None,
                   help="standalone only; ignored under ray job submit")
    args = p.parse_args(argv)
    if args.drift_report and not args.baseline:
        # validate BEFORE the (multi-hour at scale) run, not after it
        p.error("--drift-report requires --baseline")

    import ray

    if not ray.is_initialized():
        # under `ray job submit` RAY_ADDRESS points at the cluster; standalone
        # falls back to a local session
        kwargs = dict(include_dashboard=False, ignore_reinit_error=True,
                      logging_level="ERROR")
        if "RAY_ADDRESS" not in os.environ:
            kwargs["address"] = "local"
            if args.num_cpus:
                kwargs["num_cpus"] = args.num_cpus
        ray.init(**kwargs)

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from schema_guru_ray.pipelines.validate import ValidationConfig, run_validation_checkpointed

    from schema_guru_ray.state.sketch_store import (
        load_baseline,
        save_baseline,
        sketch_cfg_hash,
    )

    cfg = ValidationConfig()
    baseline = None
    if args.baseline:
        if args.baseline.endswith(".pkl"):
            with open(args.baseline, "rb") as f:
                baseline = pickle.load(f)
        else:
            baseline, meta = load_baseline(
                args.baseline, expect_cfg_hash=sketch_cfg_hash(cfg)
            )
            print(f"baseline: {meta['n_codecs']} codecs from "
                  f"{meta['source'] or 'unknown source'}", file=sys.stderr)

    summary = run_validation_checkpointed(
        args.clips_path, args.out, cfg, baseline=baseline,
        files_per_partition=args.files_per_partition,
        gc_orphans=args.gc_orphans,
        log=lambda m: print(m, file=sys.stderr),
    )

    if args.write_baseline:
        from schema_guru_ray.pipelines.validate import merge_partition_baselines

        # orphaned (boundary-shifted) partitions stay on disk without
        # --gc-orphans: the ACTIVE set comes from the run summary, never a glob
        active = summary["active"]
        try:
            # O(#partitions): merge each partition's committed sketch blobs
            store, n_clips = merge_partition_baselines(args.out, active, cfg)
            how = "merged per-partition sketches"
        except (FileNotFoundError, ValueError, OSError, KeyError) as exc:
            # legacy tree (partitions predate sketches.json), or a corrupt /
            # parameter-mismatched sketch file: re-aggregate the verdict
            # rows — the slow path is always correct
            print(f"per-partition sketch merge unavailable ({exc}); "
                  "rebuilding from verdict rows", file=sys.stderr)
            import glob

            import ray.data as rd

            from schema_guru_ray.pipelines.validate import build_baseline

            verdict_files = [
                f for p in active_dirs(args.out, active)
                for f in sorted(glob.glob(os.path.join(p, "verdicts", "*.parquet")))
            ]
            verdicts_ds = rd.read_parquet(verdict_files)
            store = build_baseline(verdicts_ds, cfg)
            n_clips = verdicts_ds.count()
            how = "re-aggregated verdict rows (legacy tree)"
        save_baseline(
            store, args.write_baseline, source=args.clips_path,
            cfg_hash=sketch_cfg_hash(cfg),
            meta={"n_clips": n_clips},
        )
        print(f"baseline written ({how}): {args.write_baseline}",
              file=sys.stderr)

    if args.drift_report:
        from schema_guru_ray.pipelines.validate import drift_by_partition

        try:
            report = drift_by_partition(
                args.out, baseline, cfg, active=summary["active"])
        except (FileNotFoundError, ValueError, OSError, KeyError) as exc:
            # e.g. a resumed pre-upgrade tree whose checkpoint hits never
            # wrote sketches.json: warn, keep the run's summary output
            print(f"drift report unavailable ({exc}); rerun the affected "
                  "partitions (config change or --gc-orphans + fresh out "
                  "dir) to commit per-partition sketches", file=sys.stderr)
        else:
            # tmp + os.replace, like save_baseline: a crash mid-write
            # keeps the previous report instead of a truncated parquet
            tmp = args.drift_report + ".tmp"
            report.to_parquet(tmp)
            os.replace(tmp, args.drift_report)
            n_drift = int(report["drifted"].sum())
            print(f"drift report written: {args.drift_report} "
                  f"({n_drift} drifted partition-codec-col rows)",
                  file=sys.stderr)

    print(json.dumps(summary, default=str))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
