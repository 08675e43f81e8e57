"""Flagship audio curation chain (pipelines/curate_clips.py): per-stage
counts pinned against generator ground-truth labels, output-format
invariants, and the two removal regimes agreeing."""

import numpy as np
import pandas as pd
import pytest

from schema_guru_ray.pipelines.curate_clips import (
    curate_clips_checkpointed,
    ClipCurationConfig,
    curate_clips,
    exact_dedup_clips,
    filter_valid_clips,
)
from schema_guru_ray.pipelines.validate import ValidationConfig
from schema_guru_ray.sources.clips import ClipsConfig, generate_clips_table

CFG = ClipsConfig(
    rate_dup=0.03, rate_corrupt=0.03, rate_ref_transcript_on_bad=0.01,
    rate_ref_null_on_good=0.01, rate_snr=0.02, rate_transcript_mismatch=0.02,
    rate_sr_invalid=0.01, rate_dur_mismatch=0.02,
)


@pytest.fixture(scope="module")
def corpus(ray_session):
    tab, labels = generate_clips_table(400, CFG, with_labels=True)
    return tab, labels


@pytest.mark.usefixtures("ray_session")
class TestCurateClips:
    def test_stage_counts_match_labels(self, corpus):
        import ray.data as rd

        tab, labels = corpus
        ds = rd.from_arrow(tab).repartition(4)
        curated, summary = curate_clips(ds)
        s = dict(zip(summary["stage"], summary["n"]))

        # validity ground truth: a row passes iff its only label (if any)
        # is duplicate_clip_id
        valid_mask = [set(ls) <= {"duplicate_clip_id"} for ls in labels]
        assert s["input"] == 400
        assert s["valid"] == sum(valid_mask)

        # exact dedup ground truth: distinct clip_ids among valid rows
        ids = tab["clip_id"].to_pylist()
        distinct_valid = len({i for i, v in zip(ids, valid_mask) if v})
        assert s["exact_dedup"] == distinct_valid

        # near-dup removal only ever removes; resample is 1:1
        assert s["near_dup"] <= s["exact_dedup"]
        assert s["curated"] == s["near_dup"]

        # output format: uniform sr, ids unique, no invalid survivors
        out = curated.to_pandas()
        assert (out["sr_hz"] == 16000).all()
        assert out["clip_id"].is_unique

    def test_filter_valid_keeps_bytes(self, corpus):
        import ray.data as rd

        tab, labels = corpus
        out = filter_valid_clips(
            rd.from_arrow(tab), ValidationConfig()
        ).to_pandas()
        assert "bytes" in out.columns and len(out) > 0
        assert out["bytes"].map(lambda b: b[:4]).eq(b"RIFF").all()

    def test_exact_dedup_keeps_one_per_id(self, corpus):
        import ray.data as rd

        tab, _ = corpus
        deduped = exact_dedup_clips(rd.from_arrow(tab)).to_pandas()
        assert deduped["clip_id"].is_unique
        assert len(deduped) == len(set(tab["clip_id"].to_pylist()))

    def test_removal_regimes_agree(self, corpus, monkeypatch):
        """join_keyed's broadcast and shuffle anti-join regimes produce the
        same curated id set (force the shuffle with BROADCAST_BYTES=0)."""
        import ray.data as rd

        from schema_guru_ray.stages import joins

        tab, _ = corpus
        ds = rd.from_arrow(tab).repartition(4)
        _, s_broadcast = curate_clips(ds, ClipCurationConfig())
        monkeypatch.setattr(joins, "BROADCAST_BYTES", 0)
        _, s_anti = curate_clips(ds, ClipCurationConfig())
        assert joins.last_regime["op"] == "join_keyed"
        assert joins.last_regime["regime"] == "shuffle"
        assert joins.last_regime["small_bytes"] > 0
        assert list(s_broadcast["n"]) == list(s_anti["n"])


@pytest.mark.usefixtures("ray_session")
class TestCurateClipsCheckpointed:
    def _split(self, tmp_path, n=300, parts=3):
        import pyarrow.parquet as pq

        tab, _ = generate_clips_table(n, CFG, with_labels=True)
        files = []
        for i in range(parts):
            f = tmp_path / f"clips{i}.parquet"
            pq.write_table(tab.take(list(range(i, n, parts))), f)
            files.append(str(f))
        return tab, files

    def test_matches_inmemory_and_resumes(self, tmp_path):
        import os

        import ray.data as rd

        tab, files = self._split(tmp_path)
        out = str(tmp_path / "out")
        res = curate_clips_checkpointed(files, out, files_per_partition=2,
                                        log=lambda *_: None)
        got_ids = sorted(res["result"].to_pandas()["clip_id"])

        curated, _ = curate_clips(rd.from_arrow(tab).repartition(3))
        want_ids = sorted(curated.to_pandas()["clip_id"])
        assert got_ids == want_ids

        # resume: wipe one final partition commit → only it reruns
        victim = os.path.join(out, "final",
                              f"partition={res['manifest']['final']['active'][1]}",
                              "_SUCCESS.json")
        os.remove(victim)
        res2 = curate_clips_checkpointed(files, out, files_per_partition=2,
                                         log=lambda *_: None)
        m = res2["manifest"]
        assert m["valid"]["ran"] == 0 and m["dedup"]["ran"] == 0
        assert m["drops"]["ran"] == 0 and m["final"]["ran"] == 1
        assert sorted(res2["result"].to_pandas()["clip_id"]) == got_ids

    def test_append_then_subset_rerun_reads_only_active_chunks(self, tmp_path):
        """+1 input file re-decodes at most 2 ``valid`` chunks; the global
        dedup/drops stages re-run by design. A rerun over the original
        subset into the same dir then equals the fresh run over it, although
        the appended run's chunks are still on disk."""
        import ray.data as rd

        tab, files = self._split(tmp_path, n=160, parts=4)
        out = str(tmp_path / "out")

        def run(fs):
            res = curate_clips_checkpointed(fs, out, files_per_partition=2,
                                            log=lambda *_: None)
            return res["manifest"], res["result"].to_pandas()

        _, fresh = run(files[:3])
        m, grown = run(files)
        assert m["valid"]["ran"] <= 2 and m["valid"]["skipped"] == 1
        curated, _ = curate_clips(rd.from_arrow(tab).repartition(4))
        assert sorted(grown["clip_id"]) == sorted(curated.to_pandas()["clip_id"])

        m, again = run(files[:3])
        assert all(s["ran"] == 0 for s in m.values())
        key = ["clip_id"]
        pd.testing.assert_frame_equal(
            again.sort_values(key).reset_index(drop=True),
            fresh.sort_values(key).reset_index(drop=True))


@pytest.mark.usefixtures("ray_session")
class TestPrepareAudioTrainingSet:
    def test_report_invariants(self):
        from schema_guru_ray.pipelines.queries import QUERIES

        out = QUERIES["prepare_audio_training_set"]("/root/testdata/sf0.001")
        assert list(out["speed_factor"]) == [0.9, 1.0, 1.1]
        w = out.set_index("speed_factor")
        assert (w["n_clips"] > 0).all()
        # every window is exactly 250 ms
        assert (w["window_ms"] == w["n_windows"] * 250).all()
        # slower speech (0.9) is longer → at least as many windows/clips
        assert w.loc[0.9, "n_windows"] >= w.loc[1.1, "n_windows"]
        assert w.loc[0.9, "n_clips"] >= w.loc[1.1, "n_clips"]

    def test_fused_equals_staged(self, corpus):
        """The fused perturb+window stage (one decode, no re-encode) must
        emit row-for-row the SAME window rows as the staged
        speed_perturb_clips → window_clips path (encode_wav/decode_wav is
        lossless for int16 PCM, so the layouts and RMS values are
        bit-comparable)."""
        import ray.data as rd

        from schema_guru_ray.stages.audio_transform import (
            perturb_window_clips, speed_perturb_clips, window_clips,
        )

        tab, _ = corpus
        ds = rd.from_arrow(tab)

        fused = (
            perturb_window_clips(ds, factors=(0.9, 1.1))
            .to_pandas()
            .drop(columns=["speed_factor"])
        )
        staged = window_clips(
            speed_perturb_clips(ds, factors=(0.9, 1.1)).drop_columns(
                ["speed_factor", "src_dur_ms"]
            )
        ).to_pandas()
        key = ["clip_id", "win_idx"]
        fused = fused.sort_values(key).reset_index(drop=True)
        staged = staged.sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(fused, staged)
