"""Resumable audio window export (jobs/window_export_job.py): exact window
counts vs decoded ground truth, crash-mid-run resume that reruns ONLY the
uncommitted partition, and config-hash invalidation."""

import glob
import os

import numpy as np
import pandas as pd
import pytest

from schema_guru_ray.audio.wav import decode_wav, encode_wav

SR = 16000


def _clips_files(tmp_path, n_files=3, clips_per_file=4):
    """Deterministic synthesized clips split across parquet files; returns
    (files, expected_window_count) for 250/100 ms windows."""
    from schema_guru_ray.stages.audio_transform import window_layout

    files, expected = [], 0
    rng = np.random.default_rng(7)
    cid = 0
    for i in range(n_files):
        rows = []
        for _ in range(clips_per_file):
            dur_s = float(rng.uniform(0.3, 1.2))
            t = np.arange(int(dur_s * SR)) / SR
            pcm = (0.3 * 32767 * np.sin(2 * np.pi * 330 * t)).astype(np.int16)
            starts, _w = window_layout(len(pcm), SR, 250, 100)
            expected += len(starts)
            rows.append(
                {
                    "clip_id": f"clip-{cid:04d}",
                    "bytes": encode_wav(pcm, SR),
                    "sr_hz": SR,
                    "dur_ms": int(round(len(pcm) / SR * 1000)),
                    "codec": "pcm_s16le",
                    "transcript": "t",
                }
            )
            cid += 1
        f = tmp_path / f"clips{i}.parquet"
        pd.DataFrame(rows).to_parquet(f, index=False)
        files.append(str(f))
    return files, expected


@pytest.mark.usefixtures("ray_session")
class TestWindowExport:
    def test_counts_match_ground_truth_and_payload_decodes(self, tmp_path):
        from jobs.window_export_job import export_windows, read_windows

        files, expected = _clips_files(tmp_path)
        out = str(tmp_path / "out")
        summary = export_windows(files, out, files_per_partition=1,
                                 log=lambda *_: None)
        assert summary["ran"] == 3 and summary["skipped"] == 0
        total = sum(p["metrics"]["n_windows"] for p in summary["partitions"])
        assert total == expected

        df = read_windows(out).to_pandas()
        assert len(df) == expected
        # every window payload decodes to exactly one window of samples
        some = df.sample(n=min(10, len(df)), random_state=0)
        for _, r in some.iterrows():
            pcm, sr = decode_wav(r["bytes"])
            assert sr == SR and len(pcm) == int(SR * 0.25)
        # (clip_id, win_idx) unique — deterministic layout
        assert not df.duplicated(["clip_id", "win_idx"]).any()

    def test_resume_skips_committed_partitions(self, tmp_path):
        from jobs.window_export_job import export_windows

        files, expected = _clips_files(tmp_path)
        out = str(tmp_path / "out")
        first = export_windows(files, out, files_per_partition=1, log=lambda *_: None)
        # simulate a crash that lost one partition's commit
        import shutil

        shutil.rmtree(os.path.join(out, f"partition={first['active'][1]}"))
        summary = export_windows(files, out, files_per_partition=1,
                                 log=lambda *_: None)
        assert summary["skipped"] == 2 and summary["ran"] == 1
        total = sum(
            p["metrics"]["n_windows"]
            for p in summary["partitions"] if p["status"] == "ran"
        )
        n_files = len(glob.glob(os.path.join(out, "partition=*", "*.parquet")))
        assert n_files >= 3 and total > 0

    def test_config_change_invalidates_checkpoints(self, tmp_path):
        from jobs.window_export_job import export_windows

        files, _ = _clips_files(tmp_path, n_files=2, clips_per_file=2)
        out = str(tmp_path / "out")
        export_windows(files, out, files_per_partition=1, log=lambda *_: None)
        rerun = export_windows(files, out, files_per_partition=1,
                               log=lambda *_: None)
        assert rerun["skipped"] == 2
        changed = export_windows(files, out, files_per_partition=1, hop_ms=250,
                                 log=lambda *_: None)
        assert changed["ran"] == 2  # different config → full rerun

    def test_stale_config_partitions_neither_read_nor_counted(self, tmp_path):
        """A crash mid-rerun after a config change leaves old-config
        partitions on disk; read_windows and the manifest totaling must
        skip them."""
        import shutil

        from jobs.window_export_job import (
            _current_partitions, export_windows, read_windows,
        )

        files, _ = _clips_files(tmp_path, n_files=2, clips_per_file=2)
        out = str(tmp_path / "out")
        export_windows(files, out, files_per_partition=1, hop_ms=100,
                       log=lambda *_: None)
        old = read_windows(out, hop_ms=100).to_pandas()
        # "crash mid-rerun": the new config committed partition 0 only —
        # simulate by exporting under hop_ms=250 into a scratch dir and
        # transplanting its partition 0 over the old-config one
        scratch = str(tmp_path / "scratch")
        new = export_windows(files, scratch, files_per_partition=1, hop_ms=250,
                             log=lambda *_: None)
        first = f"partition={new['active'][0]}"
        shutil.rmtree(f"{out}/{first}")
        shutil.move(f"{scratch}/{first}", f"{out}/{first}")

        cur = _current_partitions(out, window_ms=250, hop_ms=250)
        assert len(cur) == 1  # only the transplanted new-config partition
        new_rows = read_windows(out, hop_ms=250).to_pandas()
        assert 0 < len(new_rows) < len(old)
        stale_rows = read_windows(out, hop_ms=100).to_pandas()
        assert 0 < len(stale_rows) < len(old)  # partition 1 only

    def test_append_then_subset_rerun_reads_only_active_chunks(self, tmp_path):
        """+1 input file runs at most 2 chunks; a rerun over the original
        subset into the same dir then reads and counts exactly the fresh
        run's windows — the appended run's chunks carry the same config
        hash, so only the manifest's active set keeps them out."""
        from jobs.window_export_job import (
            _current_partitions, export_windows, read_windows,
        )

        files, expected = _clips_files(tmp_path, n_files=4, clips_per_file=2)
        out = str(tmp_path / "out")

        def run(fs):
            return export_windows(fs, out, files_per_partition=2,
                                  log=lambda *_: None)

        def rows():
            return (read_windows(out).to_pandas()
                    .sort_values(["clip_id", "win_idx"]).reset_index(drop=True))

        run(files[:3])
        fresh = rows()
        grown = run(files)
        assert grown["ran"] <= 2 and grown["skipped"] == 1
        assert len(rows()) == expected

        again = run(files[:3])
        assert again["ran"] == 0
        pd.testing.assert_frame_equal(rows(), fresh)
        assert len(_current_partitions(out, 250, 100)) == len(again["active"])
