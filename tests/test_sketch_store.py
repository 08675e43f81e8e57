"""Persistent baseline sketch store: on-disk round-trip, stale-parameter
rejection, and cross-run drift scoring against a loaded (not in-memory)
baseline — the north star's "baseline sketch store" made durable."""

import glob
import json
import os

import pytest

from schema_guru_ray.state.checkpoint import _write_manifest
from schema_guru_ray.state.sketch_store import (
    load_baseline,
    save_baseline,
    sketch_cfg_hash,
)


@pytest.fixture(scope="module")
def clips_dir(tmp_path_factory):
    from schema_guru_ray.sources.clips import ClipsConfig, generate_clips_table

    d = tmp_path_factory.mktemp("clips")
    tab = generate_clips_table(600, ClipsConfig(seed=7))
    import pyarrow.parquet as pq

    pq.write_table(tab.slice(0, 300), str(d / "a.parquet"))
    pq.write_table(tab.slice(300), str(d / "b.parquet"))
    return str(d)


def test_roundtrip_and_reject(tmp_path):
    store = {"pcm16": {"dur_ms": b"\x01\x02", "sr_hz": b"\xff"}}
    path = str(tmp_path / "base.json")
    save_baseline(store, path, source="corpus-a", cfg_hash="abc",
                  meta={"n_clips": 600})
    loaded, meta = load_baseline(path, expect_cfg_hash="abc")
    assert loaded == store
    assert meta["source"] == "corpus-a" and meta["meta"]["n_clips"] == 600

    with pytest.raises(ValueError, match="different sketch parameters"):
        load_baseline(path, expect_cfg_hash="other")

    manifest = json.load(open(path))
    manifest["version"] = 99
    json.dump(manifest, open(path, "w"))
    with pytest.raises(ValueError, match="version"):
        load_baseline(path)


def test_sketch_cfg_hash_scope():
    """Only sketch-shaping params invalidate a store."""
    from schema_guru_ray.pipelines.validate import ValidationConfig

    base = sketch_cfg_hash(ValidationConfig())
    assert sketch_cfg_hash(ValidationConfig(pass_psi=0.9)) == base
    assert sketch_cfg_hash(ValidationConfig(kll_k=200)) != base


@pytest.mark.usefixtures("ray_session")
def test_cross_run_drift_with_persisted_baseline(clips_dir, tmp_path):
    """Run 1 validates a corpus and persists the baseline; run 2 (fresh
    store loaded from disk) scores a duration-shifted corpus against it:
    self-drift passes, shifted corpus fails on PSI."""
    import ray.data as rd

    from schema_guru_ray.pipelines.validate import (
        ValidationConfig,
        build_baseline,
        codec_verdicts,
        run_validation_checkpointed,
        validate_clips,
    )
    from schema_guru_ray.sources.clips import ClipsConfig, clips_dataset

    cfg = ValidationConfig()
    out = str(tmp_path / "run1")
    run_validation_checkpointed(clips_dir, out, cfg, files_per_partition=1)
    verdict_files = sorted(
        glob.glob(os.path.join(out, "partition=*", "verdicts", "*.parquet"))
    )
    assert verdict_files
    store = build_baseline(rd.read_parquet(verdict_files), cfg)
    path = str(tmp_path / "baseline.json")
    save_baseline(store, path, source=clips_dir,
                  cfg_hash=sketch_cfg_hash(cfg))

    loaded, _ = load_baseline(path, expect_cfg_hash=sketch_cfg_hash(cfg))
    assert {c: set(v) for c, v in loaded.items()} == {
        c: set(v) for c, v in store.items()
    }

    # self comparison: tiny drift
    self_cv = codec_verdicts(
        validate_clips(rd.read_parquet(sorted(glob.glob(clips_dir + "/*.parquet"))), cfg),
        cfg, baseline=loaded,
    )
    assert "psi_dur_ms" in self_cv.columns
    assert (self_cv["psi_dur_ms"].dropna() < 0.05).all()

    # duration-shifted corpus: drift verdict fails
    shifted = validate_clips(
        clips_dataset(800, ClipsConfig(median_dur_ms=600.0, seed=43)), cfg
    )
    shift_cv = codec_verdicts(shifted, cfg, baseline=loaded)
    assert (shift_cv["psi_dur_ms"].dropna() > 0.25).any()
    assert not shift_cv["passed"].all()


def test_merge_stores_matches_single_pass_quantiles():
    """A store merged from split-data partition stores must answer
    quantile queries like the single-pass store (within KLL error)."""
    import numpy as np

    from schema_guru_ray.sketches.kll import KLL
    from schema_guru_ray.state.sketch_store import merge_stores

    rng = np.random.default_rng(5)
    full = rng.lognormal(5.0, 0.6, 40_000)
    parts = np.array_split(full, 7)
    part_stores = [
        {"pcm16": {"dur_ms": KLL(800).add_many(p).to_bytes()}} for p in parts
    ]
    merged = merge_stores(part_stores)
    mk = KLL.from_bytes(merged["pcm16"]["dur_ms"])
    assert mk.n == full.size
    for q in (0.1, 0.5, 0.9, 0.99):
        exact = float(np.quantile(full, q))
        assert abs(mk.quantile(q) - exact) / exact < 0.05, q


@pytest.mark.usefixtures("ray_session")
def test_partition_sketches_merge_to_corpus_baseline(clips_dir, tmp_path):
    """Every checkpointed partition commits sketches.json; merging them
    (O(#partitions), no verdict-row reads) must agree with the row-level
    corpus rebuild within KLL error — the scale path for nightly baseline
    refreshes."""
    import glob as _glob

    import ray.data as rd

    from schema_guru_ray.pipelines.validate import (
        ValidationConfig,
        build_baseline,
        merge_partition_baselines,
        run_validation_checkpointed,
    )
    from schema_guru_ray.sketches.kll import KLL

    cfg = ValidationConfig()
    out = str(tmp_path / "run")
    s = run_validation_checkpointed(clips_dir, out, cfg, files_per_partition=1)
    for p in _glob.glob(os.path.join(out, "partition=*")):
        assert os.path.exists(os.path.join(p, "sketches.json"))

    merged, n_clips = merge_partition_baselines(out, cfg=cfg)
    assert n_clips == sum(pp["metrics"]["n_clips"] for pp in s["partitions"])

    verdicts = rd.read_parquet(sorted(
        _glob.glob(os.path.join(out, "partition=*", "verdicts", "*.parquet"))))
    rowlevel = build_baseline(verdicts, cfg)
    assert set(merged) == set(rowlevel)
    for codec in rowlevel:
        for col in ("dur_ms", "sr_hz"):
            a = KLL.from_bytes(merged[codec][col])
            b = KLL.from_bytes(rowlevel[codec][col])
            assert a.n == b.n
            for q in (0.1, 0.5, 0.9):
                qa, qb = a.quantile(q), b.quantile(q)
                if qb:
                    assert abs(qa - qb) <= 0.03 * abs(qb) + 1e-9


def test_merge_partition_baselines_legacy_tree_raises(tmp_path):
    """A tree whose partitions predate sketches.json must raise (the job
    falls back to the row-level rebuild), never silently skip some."""
    from schema_guru_ray.pipelines.validate import merge_partition_baselines

    p = tmp_path / "out" / "partition=0000"
    p.mkdir(parents=True)
    _write_manifest(str(tmp_path / "out"), {"active": ["0000"]})
    with pytest.raises(FileNotFoundError, match="sketches"):
        merge_partition_baselines(str(tmp_path / "out"))


@pytest.mark.usefixtures("ray_session")
def test_drift_localized_to_shifted_partition(clips_dir, tmp_path):
    """Drift LOCALIZATION: baseline from the clean corpus; a nightly
    append lands one duration-shifted shard; the per-partition drift
    report must flag the new chunk and clear every original one —
    without reading any verdict rows."""
    import shutil

    import pyarrow.parquet as pq

    from schema_guru_ray.pipelines.validate import (
        ValidationConfig,
        drift_by_partition,
        merge_partition_baselines,
        run_validation_checkpointed,
    )
    from schema_guru_ray.sources.clips import ClipsConfig, generate_clips_table

    src = tmp_path / "src"
    src.mkdir()
    for f in sorted(os.listdir(clips_dir)):
        shutil.copy(os.path.join(clips_dir, f), src / f"base-{f}")

    cfg = ValidationConfig()
    out = str(tmp_path / "out")
    s1 = run_validation_checkpointed(str(src), out, cfg, files_per_partition=1)
    baseline, _ = merge_partition_baselines(out, active=s1["active"], cfg=cfg)

    # self-check: no original partition drifts against its own corpus
    rep0 = drift_by_partition(out, baseline, cfg, active=s1["active"])
    assert not rep0["drifted"].any()

    # nightly append: one shard with 4x-shifted durations
    shifted = generate_clips_table(400, ClipsConfig(median_dur_ms=800.0, seed=99))
    pq.write_table(shifted, src / "zz-night.parquet")
    s2 = run_validation_checkpointed(str(src), out, cfg, files_per_partition=1)
    new_digests = {p["digest"] for p in s2["partitions"] if p["status"] == "ran"}
    assert len(new_digests) == 1

    rep = drift_by_partition(out, baseline, cfg, active=s2["active"])
    flagged = set(rep.loc[rep["drifted"], "partition"])
    assert flagged == new_digests  # exactly the appended chunk
    dur = rep[(rep["col"] == "dur_ms") & rep["partition"].isin(new_digests)]
    assert (dur["psi"].dropna() > cfg.pass_psi).any()


@pytest.mark.usefixtures("ray_session")
def test_sketch_regimes_agree_driver_vs_distributed(clips_dir, tmp_path, monkeypatch):
    """The distributed (fan-out) regime of merge_partition_baselines and
    drift_by_partition must answer exactly like the driver regime —
    forced via fold.DRIVER_FOLD_ROWS = 0 on the same small tree."""
    import pandas as pd

    from schema_guru_ray import fold

    from schema_guru_ray.pipelines.validate import (
        ValidationConfig,
        drift_by_partition,
        merge_partition_baselines,
        run_validation_checkpointed,
    )
    from schema_guru_ray.sketches.kll import KLL

    cfg = ValidationConfig()
    out = str(tmp_path / "run")
    run_validation_checkpointed(clips_dir, out, cfg, files_per_partition=1)

    drv_store, drv_n = merge_partition_baselines(out, cfg=cfg)
    drv = drift_by_partition(out, drv_store, cfg)
    monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", 0)
    dist_store, dist_n = merge_partition_baselines(out, cfg=cfg)
    assert drv_n == dist_n and set(drv_store) == set(dist_store)
    for codec in drv_store:
        for col in drv_store[codec]:
            a = KLL.from_bytes(drv_store[codec][col])
            b = KLL.from_bytes(dist_store[codec][col])
            assert a.n == b.n
            for q in (0.1, 0.5, 0.9):
                qa, qb = a.quantile(q), b.quantile(q)
                if qb:
                    assert abs(qa - qb) <= 0.03 * abs(qb) + 1e-9

    dist = drift_by_partition(out, drv_store, cfg)
    pd.testing.assert_frame_equal(drv, dist, check_dtype=False)


def test_legacy_tree_raises_catchably_in_distributed_regime(tmp_path, monkeypatch):
    """The legacy-tree FileNotFoundError must be raised on the DRIVER even
    in the fan-out regime — inside a Ray task it would surface as
    RayTaskError and slip past the job's typed fallback."""
    from schema_guru_ray import fold
    from schema_guru_ray.pipelines.validate import (
        drift_by_partition,
        merge_partition_baselines,
    )

    for i in range(3):
        (tmp_path / "out" / f"partition={i:04d}").mkdir(parents=True)
    _write_manifest(str(tmp_path / "out"), {"active": [f"{i:04d}" for i in range(3)]})
    monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", 0)
    with pytest.raises(FileNotFoundError, match="predate"):
        merge_partition_baselines(str(tmp_path / "out"))
    with pytest.raises(FileNotFoundError, match="predate"):
        drift_by_partition(str(tmp_path / "out"), {})


@pytest.mark.usefixtures("ray_session")
def test_null_codec_survives_checkpointed_baseline(tmp_path):
    """A partition holding null-codec clips next to real codecs commits its
    sketches (the null codec persists as NULL_CODEC), and the merged
    baseline's drift lookups find the None codec again."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from schema_guru_ray.pipelines.validate import (
        ValidationConfig,
        codec_verdicts,
        drift_by_partition,
        merge_partition_baselines,
        run_validation_checkpointed,
    )
    from schema_guru_ray.sources.clips import ClipsConfig, generate_clips_table
    from schema_guru_ray.state.sketch_store import NULL_CODEC

    tab = generate_clips_table(300, ClipsConfig(seed=5))
    codecs = [None if i % 3 == 0 else c for i, c in enumerate(tab["codec"].to_pylist())]
    i = tab.schema.get_field_index("codec")
    tab = tab.set_column(i, tab.schema.field(i), pa.array(codecs, tab.schema.field(i).type))
    src = tmp_path / "clips"
    src.mkdir()
    pq.write_table(tab, str(src / "a.parquet"))

    cfg = ValidationConfig()
    out = str(tmp_path / "out")
    run_validation_checkpointed(str(src), out, cfg, files_per_partition=1)
    (sk,) = glob.glob(os.path.join(out, "partition=*", "sketches.json"))
    with open(sk) as f:
        keys = set(json.load(f)["sketches"])
    assert NULL_CODEC in keys and len(keys) > 1

    merged, _ = merge_partition_baselines(out, cfg=cfg)
    assert None in merged and NULL_CODEC not in merged
    report = drift_by_partition(out, merged, cfg)
    null_rows = report[report["codec"].isna()]
    assert len(null_rows) == 2 and null_rows["psi"].notna().all()

    verdicts = rd.read_parquet(
        glob.glob(os.path.join(out, "partition=*", "verdicts", "*.parquet")))
    cv = codec_verdicts(verdicts, cfg, baseline=merged)
    assert cv.loc[cv["codec"].isna(), "psi_dur_ms"].notna().all()


@pytest.mark.usefixtures("ray_session")
def test_distributed_sketch_tasks_with_only_empty_stores(tmp_path, monkeypatch):
    """fold.DRIVER_FOLD_ROWS = 0 over 128 partitions whose first 64 — one
    64-dir task — hold only empty sketch stores: that task's frames are
    typed, so the distributed regime answers like the driver regime."""
    import numpy as np
    import pandas as pd

    from schema_guru_ray import fold

    from schema_guru_ray.pipelines.validate import (
        ValidationConfig,
        drift_by_partition,
        merge_partition_baselines,
    )
    from schema_guru_ray.sketches.kll import KLL

    cfg = ValidationConfig()
    out = tmp_path / "out"
    rng = np.random.default_rng(0)
    for i in range(128):
        store = {} if i < 64 else {"pcm16": {
            "dur_ms": KLL(cfg.kll_k).add_many(rng.normal(1000, 50, 200)).to_bytes()}}
        save_baseline(store, str(out / f"partition={i:04d}" / "sketches.json"),
                      cfg_hash=sketch_cfg_hash(cfg), meta={"n_clips": 200 * len(store)})
    _write_manifest(str(out), {"active": [f"{i:04d}" for i in range(128)]})

    drv_store, drv_n = merge_partition_baselines(str(out), cfg=cfg)
    drv = drift_by_partition(str(out), drv_store, cfg)
    monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", 0)
    dist_store, dist_n = merge_partition_baselines(str(out), cfg=cfg)
    assert drv_n == dist_n == 64 * 200
    assert set(drv_store) == set(dist_store) == {"pcm16"}

    dist = drift_by_partition(str(out), drv_store, cfg)
    assert len(dist) == 64
    pd.testing.assert_frame_equal(drv, dist)


def _merged_view(out, cfg, active=None):
    """Baseline merge + drift report of a checkpoint tree, in comparable form."""
    from schema_guru_ray.pipelines.validate import (
        drift_by_partition,
        merge_partition_baselines,
    )

    store, n_clips = merge_partition_baselines(out, active=active, cfg=cfg)
    return store, n_clips, drift_by_partition(out, store, cfg, active=active)


@pytest.mark.usefixtures("ray_session")
def test_subset_rerun_merges_like_a_fresh_run(clips_dir, tmp_path):
    """A rerun over a strict subset of the inputs into the same dir: the
    baseline merge and drift report WITHOUT ``active`` answer exactly like
    a fresh run over the subset — the dropped input's chunk stays on disk
    but is not in the manifest's active set."""
    import shutil

    import pandas as pd

    from schema_guru_ray.pipelines.validate import ValidationConfig, run_validation_checkpointed

    cfg = ValidationConfig()
    src = tmp_path / "src"
    shutil.copytree(clips_dir, src)
    out, fresh = str(tmp_path / "out"), str(tmp_path / "fresh")
    run_validation_checkpointed(str(src), out, cfg, files_per_partition=1)
    os.remove(sorted(glob.glob(str(src / "*.parquet")))[-1])
    run_validation_checkpointed(str(src), out, cfg, files_per_partition=1)
    run_validation_checkpointed(str(src), fresh, cfg, files_per_partition=1)

    got, want = _merged_view(out, cfg), _merged_view(fresh, cfg)
    assert got[:2] == want[:2]
    pd.testing.assert_frame_equal(got[2], want[2])


@pytest.mark.usefixtures("ray_session")
def test_default_active_set_skips_orphans(clips_dir, tmp_path):
    """An append re-shapes the trailing chunk and, without gc_orphans,
    leaves the superseded one on disk: the baseline merge and the drift
    report read the manifest's active set when ``active`` is omitted, so
    the orphan is neither merged nor scored."""
    import shutil

    import pandas as pd

    from schema_guru_ray.pipelines.validate import ValidationConfig, run_validation_checkpointed

    cfg = ValidationConfig()
    first, second = sorted(glob.glob(os.path.join(clips_dir, "*.parquet")))
    src = tmp_path / "src"
    src.mkdir()
    shutil.copy(first, src)
    out = str(tmp_path / "out")
    run_validation_checkpointed(str(src), out, cfg, files_per_partition=2)
    shutil.copy(second, src)
    s = run_validation_checkpointed(str(src), out, cfg, files_per_partition=2)
    assert s["orphaned"] == 1 and len(s["active"]) == 1

    got, want = _merged_view(out, cfg), _merged_view(out, cfg, active=s["active"])
    assert got[:2] == want[:2] and got[1] == 600
    pd.testing.assert_frame_equal(got[2], want[2])
