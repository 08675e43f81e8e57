"""Checkpointed/resumable curate: a completed run equals the plain chain,
a crash mid final-pass resumes finishing only the remainder, and the
expensive global LSH+verify stage is never recomputed once committed."""

import os

import pandas as pd
import pytest

from schema_guru_ray.pipelines import curate as curate_mod
from schema_guru_ray.stages import joins
from schema_guru_ray.state import checkpoint
from schema_guru_ray.pipelines.curate import (
    curate_documents,
    curate_documents_checkpointed,
)
from schema_guru_ray.state.checkpoint import (
    active_files,
    partition_chunks,
    partition_digest,
    read_manifest,
)


@pytest.fixture()
def doc_files(sf_dir, tmp_path):
    """documents split into 3 parquet shards (multi-file corpus shape)."""
    docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    files = []
    for i in range(3):
        f = tmp_path / f"docs{i}.parquet"
        docs.iloc[i::3].reset_index(drop=True).to_parquet(f)
        files.append(str(f))
    return files, docs


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return (
        df[["doc_id", "n_words"]]
        .astype({"doc_id": "int64", "n_words": "int64"})
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


@pytest.mark.usefixtures("ray_session")
class TestCurateCheckpoint:
    def test_completed_run_matches_plain_chain(self, doc_files, tmp_path):
        import ray.data as rd

        files, docs = doc_files
        out = str(tmp_path / "ckpt")
        res = curate_documents_checkpointed(files, out, files_per_partition=3)
        got = _canon(res["result"].to_pandas())
        want = _canon(curate_documents(rd.from_pandas(docs).repartition(8)).to_pandas())
        pd.testing.assert_frame_equal(got, want)
        assert len(got) > 0
        # second run is a pure checkpoint replay: nothing re-runs
        res2 = curate_documents_checkpointed(files, out, files_per_partition=3)
        assert res2["manifest"]["dedup"]["ran"] == 0
        assert res2["manifest"]["drops"]["ran"] == 0
        assert res2["manifest"]["final"]["ran"] == 0
        pd.testing.assert_frame_equal(_canon(res2["result"].to_pandas()), want)

    def test_crash_mid_final_pass_resumes_remainder(
        self, doc_files, tmp_path, monkeypatch
    ):
        import ray.data as rd

        files, docs = doc_files
        out = str(tmp_path / "ckpt_crash")
        # one chunk per plan, so the crash in the second chunk's body
        # leaves the first one committed
        monkeypatch.setattr(checkpoint, "CHUNKS_PER_PLAN", 1)
        # the dedup stage writes one file per non-empty output block of its
        # bucketed shuffle; 64 buckets give the final pass the three
        # chunks this scenario needs (a crash in the second, a resume that
        # runs the second and third)
        monkeypatch.setattr(joins, "MIN_BUCKETS", 64)
        real_remove = curate_mod._remove_drops
        state = {"calls": 0}

        def crash_on_second(*args, **kwargs):
            state["calls"] += 1
            if state["calls"] == 2:
                raise RuntimeError("simulated crash mid final pass")
            return real_remove(*args, **kwargs)

        monkeypatch.setattr(curate_mod, "_remove_drops", crash_on_second)
        with pytest.raises(RuntimeError, match="simulated crash"):
            curate_documents_checkpointed(files, out, files_per_partition=3)
        # the global stages + first final partition committed; the crashed
        # partition left no trusted dir
        drops_active = read_manifest(os.path.join(out, "drops"))["active"]
        assert os.path.exists(os.path.join(out, "drops", f"partition={drops_active[0]}"))
        dedup_dir = os.path.join(out, "dedup")
        dedup_files = active_files(dedup_dir, read_manifest(dedup_dir)["active"])
        final_first = partition_digest(partition_chunks(dedup_files, 3)[0])
        final_parts = [
            d for d in os.listdir(os.path.join(out, "final"))
            if d.startswith("partition=")
        ]
        assert final_parts == [f"partition={final_first}"]

        monkeypatch.setattr(curate_mod, "_remove_drops", real_remove)
        res = curate_documents_checkpointed(files, out, files_per_partition=3)
        # resume skipped everything already committed — including the
        # expensive LSH+verify drops stage — and ran only the remainder
        assert res["manifest"]["dedup"]["skipped"] == 1
        assert res["manifest"]["drops"]["skipped"] == 1
        assert res["manifest"]["final"]["skipped"] == 1
        assert res["manifest"]["final"]["ran"] == 2
        want = _canon(curate_documents(rd.from_pandas(docs).repartition(8)).to_pandas())
        pd.testing.assert_frame_equal(_canon(res["result"].to_pandas()), want)

    def test_append_then_subset_rerun_reads_only_active_chunks(self, doc_files, tmp_path):
        """A +1-file append re-runs the two one-chunk global stages (by
        design: dedup and near-dup drops see the whole corpus) and matches
        the plain chain; a rerun over the original subset into the same dir
        then answers exactly like the fresh run over it, although the
        appended run's chunks are still on disk."""
        import ray.data as rd

        files, docs = doc_files
        out = str(tmp_path / "ckpt")
        first = curate_documents_checkpointed(files[:2], out, files_per_partition=3)
        fresh = _canon(first["result"].to_pandas())

        grown = curate_documents_checkpointed(files, out, files_per_partition=3)
        m = grown["manifest"]
        assert m["dedup"]["ran"] == 1 and m["drops"]["ran"] == 1
        want = _canon(curate_documents(rd.from_pandas(docs).repartition(8)).to_pandas())
        pd.testing.assert_frame_equal(_canon(grown["result"].to_pandas()), want)

        again = curate_documents_checkpointed(files[:2], out, files_per_partition=3)
        assert all(s["ran"] == 0 for s in again["manifest"].values())
        pd.testing.assert_frame_equal(_canon(again["result"].to_pandas()), fresh)
