"""Resumable deterministic shuffled export (jobs/export_job.py): shard
layout, reproducible global order, crash-resume, and agreement with the
shuffle_positions oracle order."""

import glob
import hashlib
import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from jobs.export_job import export_shuffled, read_shard


def _split_inputs(sf_dir, tmp_path, n=3):
    df = pq.read_table(os.path.join(sf_dir, "documents.parquet")).to_pandas()
    files = []
    for i in range(n):
        part = df.iloc[i::n]
        f = tmp_path / f"docs{i}.parquet"
        part.to_parquet(f, index=False)
        files.append(str(f))
    return df, files


@pytest.mark.usefixtures("ray_session")
class TestExportShuffled:
    def test_layout_and_global_order(self, sf_dir, tmp_path):
        df, files = _split_inputs(sf_dir, tmp_path)
        out = str(tmp_path / "out")
        summary = export_shuffled(files, out, files_per_partition=2, num_shards=8,
                                  log=lambda *_: None)
        assert summary["ran"] == 2

        # every input row lands in exactly one shard, none lost
        all_rows = []
        for s in range(8):
            shard_df = read_shard(out, s)
            if len(shard_df):
                assert (shard_df["__shuffle_key"].str.slice(0, 2)
                        .map(lambda x: int(x, 16) % 8) == s).all()
                all_rows.append(shard_df)
        merged = pd.concat(all_rows, ignore_index=True)
        assert sorted(merged["doc_id"]) == sorted(df["doc_id"])

        # in-shard order is the md5 order — the same global order
        # shuffle_positions_documents proves against the SQL oracle
        for s in (0, 3):
            shard_df = read_shard(out, s)
            keys = [hashlib.md5(str(i).encode()).hexdigest()
                    for i in shard_df["doc_id"]]
            assert keys == sorted(keys)

    def test_resume_skips_committed_and_is_deterministic(self, sf_dir, tmp_path):
        df, files = _split_inputs(sf_dir, tmp_path)
        out = str(tmp_path / "out")
        run = export_shuffled(files, out, files_per_partition=1, num_shards=4,
                              log=lambda *_: None)
        first = {s: read_shard(out, s) for s in range(4)}

        # wipe one partition's commit → only it reruns
        victim = os.path.join(out, f"partition={run['active'][1]}", "_SUCCESS.json")
        os.remove(victim)
        summary = export_shuffled(files, out, files_per_partition=1, num_shards=4,
                                  log=lambda *_: None)
        assert summary["ran"] == 1 and summary["skipped"] == 2

        # byte-identical shards after resume (determinism contract)
        for s in range(4):
            again = read_shard(out, s)
            pd.testing.assert_frame_equal(first[s], again)

    def test_config_change_invalidates(self, sf_dir, tmp_path):
        _, files = _split_inputs(sf_dir, tmp_path)
        out = str(tmp_path / "out")
        export_shuffled(files, out, files_per_partition=2, num_shards=4,
                        log=lambda *_: None)
        # different shard count → different config hash → full rerun
        summary = export_shuffled(files, out, files_per_partition=2, num_shards=8,
                                  log=lambda *_: None)
        assert summary["ran"] == 2 and summary["skipped"] == 0

    def test_append_then_subset_rerun_reads_only_active_chunks(self, sf_dir, tmp_path):
        """+1 input file runs only the new chunk; a rerun over the original
        subset into the same dir then reads exactly the fresh run's shards,
        although the appended run's chunk is still on disk."""
        df, files = _split_inputs(sf_dir, tmp_path)
        out = str(tmp_path / "out")

        def run(fs):
            return export_shuffled(fs, out, files_per_partition=2, num_shards=4,
                                   log=lambda *_: None)

        run(files[:2])
        fresh = {s: read_shard(out, s) for s in range(4)}
        grown = run(files)
        assert grown["ran"] <= 2 and grown["skipped"] == 1
        rows = pd.concat([read_shard(out, s) for s in range(4)])
        assert sorted(rows["doc_id"]) == sorted(df["doc_id"])

        again = run(files[:2])
        assert again["ran"] == 0
        for s in range(4):
            pd.testing.assert_frame_equal(read_shard(out, s), fresh[s])


@pytest.mark.usefixtures("ray_session")
class TestMultiEpochReader:
    def test_epochs_permute_reproducibly(self, sf_dir, tmp_path):
        df, files = _split_inputs(sf_dir, tmp_path)
        out = str(tmp_path / "out")
        export_shuffled(files, out, files_per_partition=2, num_shards=4,
                        log=lambda *_: None)
        for s in range(4):
            e0 = read_shard(out, s)
            if not len(e0):
                continue
            e1 = read_shard(out, s, epoch=1)
            e1_again = read_shard(out, s, epoch=1)
            e2 = read_shard(out, s, epoch=2)
            # same multiset of rows, reproducible per epoch
            assert sorted(e0["doc_id"]) == sorted(e1["doc_id"])
            assert e1["doc_id"].tolist() == e1_again["doc_id"].tolist()
            # different epochs give different orders (overwhelmingly
            # likely for any shard with >3 rows; skip degenerate shards)
            if len(e0) > 3:
                assert (e0["doc_id"].tolist() != e1["doc_id"].tolist()
                        or e1["doc_id"].tolist() != e2["doc_id"].tolist())
