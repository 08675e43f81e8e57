"""Real-DSP audio featurizer + content-based audio dedup."""

import numpy as np
import pytest

from schema_guru_ray.audio import synth
from schema_guru_ray.audio.wav import encode_wav
from schema_guru_ray.sources.clips import ClipsConfig, generate_clips_table
from schema_guru_ray.stages.audio_features import (
    FEATURE_DIM,
    AudioFeaturizer,
    clip_features,
)


class TestClipFeatures:
    def test_shape_and_determinism(self):
        pcm = synth.reference_pcm("a", 16000, 8000)
        f1, f2 = clip_features(pcm, 16000), clip_features(pcm, 16000)
        assert f1.shape == (FEATURE_DIM,) and f1.dtype == np.float32
        assert np.array_equal(f1, f2)

    def test_discriminates_signals(self):
        a = clip_features(synth.reference_pcm("a", 16000, 8000), 16000)
        b = clip_features(synth.reference_pcm("b", 16000, 8000), 16000)
        cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert cos < 0.999

    def test_robust_to_tiny_noise(self):
        pcm = synth.reference_pcm("a", 16000, 8000)
        noisy = np.clip(
            pcm + np.random.default_rng(0).normal(0, 20, pcm.shape), -32768, 32767
        ).astype(np.int16)
        a, b = clip_features(pcm, 16000), clip_features(noisy, 16000)
        cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert cos > 0.999

    def test_short_clip(self):
        pcm = synth.reference_pcm("a", 8000, 50)  # shorter than one frame
        assert clip_features(pcm, 8000).shape == (FEATURE_DIM,)


class TestAudioFeaturizerBatch:
    def test_batch_contract_and_undecodable(self):
        cfg = ClipsConfig(rate_corrupt=0.2, rate_dup=0, rate_ref_transcript_on_bad=0,
                          rate_ref_null_on_good=0, rate_snr=0,
                          rate_transcript_mismatch=0, rate_sr_invalid=0,
                          rate_dur_mismatch=0)
        tab = generate_clips_table(60, cfg)
        out = AudioFeaturizer()(tab)
        assert out.column_names == ["clip_id", "codec", "decodable", "embedding"]
        assert out.num_rows == 60
        ok = out["decodable"].to_pylist()
        assert any(ok) and not all(ok)


@pytest.mark.usefixtures("ray_session")
class TestContentDedup:
    def test_finds_signal_duplicates(self):
        import ray.data as rd

        from schema_guru_ray.stages.audio_features import content_dedup_pairs
        from schema_guru_ray.stages.profile import stable_hash64
        import pandas as pd

        dup_cfg = ClipsConfig(
            rate_dup=0.05, rate_corrupt=0, rate_ref_transcript_on_bad=0,
            rate_ref_null_on_good=0, rate_snr=0, rate_transcript_mismatch=0,
            rate_sr_invalid=0, rate_dur_mismatch=0,
        )
        tab = generate_clips_table(400, dup_cfg)
        ids = tab["clip_id"].to_pylist()
        dup_ids = {i for i in ids if ids.count(i) > 1}
        assert dup_ids, "fixture should contain duplicates"
        pairs = content_dedup_pairs(rd.from_arrow(tab).repartition(3)).to_pandas()
        # every clip_id-duplicate pair must be found BY CONTENT
        hashes = {
            int(h): cid
            for cid, h in zip(ids, stable_hash64(pd.Series(ids)).astype(np.int64))
        }
        found_ids = {hashes[int(a)] for a in pairs["id_a"]} | {
            hashes[int(b)] for b in pairs["id_b"]
        }
        assert dup_ids <= found_ids


class TestIntegritySignals:
    def test_clipping_and_silence_ground_truth(self):
        from schema_guru_ray.stages.audio_features import integrity_signals

        sr = 16000  # 10 ms frame = 160 samples
        # 10 frames: 4 silent, 6 loud; 100 of 1600 samples at the rails
        loud = np.full(6 * 160, 20000, dtype=np.int16)
        loud[:100] = 32767
        pcm = np.concatenate([np.zeros(4 * 160, dtype=np.int16), loud])
        sig = integrity_signals(pcm, sr)
        assert sig["n_samples"] == 1600
        assert sig["clip_ppm"] == 62500       # 100/1600
        assert sig["silence_ppm"] == 400000   # 4/10 frames
        assert sig["peak_dbfs_centi"] == 0    # rails == 0 dBFS (floor half-up)

    def test_dc_offset_and_empty(self):
        from schema_guru_ray.stages.audio_features import integrity_signals

        pcm = np.full(1600, 3277, dtype=np.int16)  # ~0.1 full scale DC
        sig = integrity_signals(pcm, 16000)
        assert sig["dc_milli"] == 100
        assert sig["clip_ppm"] == 0
        empty = integrity_signals(np.array([], dtype=np.int16), 16000)
        assert empty["silence_ppm"] == 1000000

    def test_mfcc_separates_tones(self):
        from schema_guru_ray.stages.audio_features import clip_mfcc

        t = np.arange(16000) / 16000.0
        a = (np.sin(2 * np.pi * 300 * t) * 20000).astype(np.int16)
        b = (np.sin(2 * np.pi * 3000 * t) * 20000).astype(np.int16)
        ma, mb = clip_mfcc(a, 16000), clip_mfcc(b, 16000)
        assert ma.shape == (26,)
        # same tone reproducible, different tones clearly apart in cepstrum
        assert np.allclose(ma, clip_mfcc(a, 16000))
        assert np.linalg.norm(ma - mb) > 1.0


@pytest.mark.usefixtures("ray_session")
class TestAudioIntegrityStage:
    def test_batch_rows_and_undecodable(self):
        import ray.data as rd

        from schema_guru_ray.audio.wav import encode_wav
        from schema_guru_ray.stages.audio_features import audio_integrity

        good = encode_wav(np.full(1600, 32767, dtype=np.int16), 16000)
        ds = rd.from_items(
            [
                {"clip_id": "a", "codec": "wav", "bytes": good},
                {"clip_id": "b", "codec": "wav", "bytes": b"not a wav"},
            ]
        )
        out = audio_integrity(ds).to_pandas().set_index("clip_id")
        assert bool(out.loc["a", "decodable"]) is True
        assert out.loc["a", "clip_ppm"] == 1000000
        assert bool(out.loc["b", "decodable"]) is False


@pytest.mark.usefixtures("ray_session")
class TestContentSigner:
    def test_same_signal_collides_distinct_tones_differ(self):
        import ray.data as rd

        from schema_guru_ray.audio.wav import encode_wav
        from schema_guru_ray.stages.audio_features import content_dedup_drop_hashes, ContentSigner
        from schema_guru_ray.stages.profile import stable_hash64
        import pandas as pd
        import pyarrow as pa

        t = np.arange(16000) / 16000.0
        tone_a = encode_wav((np.sin(2 * np.pi * 300 * t) * 20000).astype(np.int16), 16000)
        tone_b = encode_wav((np.sin(2 * np.pi * 2900 * t) * 20000).astype(np.int16), 16000)
        rows = [
            {"clip_id": "x1", "bytes": tone_a},
            {"clip_id": "x2", "bytes": tone_a},   # same SIGNAL, different id
            {"clip_id": "y1", "bytes": tone_b},
        ]
        sigs = ContentSigner()(pa.Table.from_pylist(rows)).set_index("clip_id")
        assert sigs.loc["x1", "sig"] == sigs.loc["x2", "sig"]
        assert sigs.loc["x1", "sig"] != sigs.loc["y1", "sig"]

        drops = content_dedup_drop_hashes(rd.from_items(rows)).to_pandas()
        expected_drop = max(
            int(stable_hash64(pd.Series(["x1"]))[0].astype(np.int64)),
            int(stable_hash64(pd.Series(["x2"]))[0].astype(np.int64)),
        )
        assert list(drops["drop_h"]) == [expected_drop]


class TestSpecAugment:
    def _energies(self):
        from schema_guru_ray.stages.audio_features import _log_energies

        pcm = synth.reference_pcm("aug", 16000, 16000)
        return _log_energies(pcm, 16000)

    def test_deterministic_per_key_and_mean_fill(self):
        from schema_guru_ray.stages.audio_features import spec_augment

        e = self._energies()
        a = spec_augment(e, "clip-1")
        b = spec_augment(e, "clip-1")
        c = spec_augment(e, "clip-2")
        assert np.array_equal(a, b)  # same key → same masks
        assert not np.array_equal(a, c)  # different key → different masks
        # masked cells (where a differs from e) hold the utterance mean
        changed = a != e
        assert changed.any()
        assert np.allclose(a[changed], e.mean())
        # bounded damage: masks cover ≤ 2 time strips + 2 freq strips
        n_t, n_f = e.shape
        assert changed.sum() <= 2 * 20 * n_f + 2 * 8 * n_t

    def test_input_not_mutated_and_degenerate_shapes(self):
        from schema_guru_ray.stages.audio_features import spec_augment

        e = self._energies()
        snap = e.copy()
        spec_augment(e, "k")
        assert np.array_equal(e, snap)
        tiny = np.zeros((1, 1))
        out = spec_augment(tiny, "k")
        assert out.shape == (1, 1)


@pytest.mark.usefixtures("ray_session")
class TestCmvn:
    def _feats_ds(self, n=40):
        import pandas as pd
        import ray.data as rd

        rng = np.random.default_rng(3)
        vecs = rng.normal(5.0, 2.0, size=(n, FEATURE_DIM)).astype(np.float32)
        return (
            rd.from_pandas(
                pd.DataFrame({"embedding": [v for v in vecs]})
            ).repartition(4),
            vecs,
        )

    def test_stats_match_numpy_exactly_enough(self):
        from schema_guru_ray.stages.audio_features import cmvn_stats

        ds, vecs = self._feats_ds()
        mean, std = cmvn_stats(ds)
        ref = vecs.astype(np.float64)
        assert np.allclose(mean, ref.mean(axis=0), atol=1e-9)
        assert np.allclose(std, ref.std(axis=0), atol=1e-9)

    def test_tree_fold_and_empty_batches_match_numpy(self, monkeypatch):
        """Forced-tiny-batch path: many partial rows trigger the
        distributed tree level (driver folds ≤ FANIN rows), and blocks
        emptied by an upstream filter don't crash the partial kernel."""
        import pandas as pd

        from schema_guru_ray import fold
        from schema_guru_ray.stages.audio_features import apply_cmvn, cmvn_stats

        ds, vecs = self._feats_ds(n=60)
        # one row per block → 60 partial rows > DRIVER_FOLD_ROWS → tree;
        # drop a block's rows entirely so an empty block reaches partial()
        tiny = ds.repartition(60).map_batches(
            lambda b: b if len(b) == 0 or float(b["embedding"].iloc[0][0]) != float(vecs[0, 0]) else b.iloc[:0],
            batch_format="pandas",
        )
        monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", 4)
        monkeypatch.setattr(fold, "FANIN", 8)
        mean, std = cmvn_stats(tiny)
        ref = np.stack([v for v in vecs if float(v[0]) != float(vecs[0, 0])]).astype(np.float64)
        assert np.allclose(mean, ref.mean(axis=0), atol=1e-9)
        assert np.allclose(std, ref.std(axis=0), atol=1e-9)
        # apply_cmvn's norm kernel tolerates the empty block too
        out = apply_cmvn(tiny, mean, std).to_pandas()
        assert len(out) == len(ref)

    def test_apply_normalizes_to_zero_one(self):
        from schema_guru_ray.stages.audio_features import apply_cmvn, cmvn_stats

        ds, _ = self._feats_ds()
        mean, std = cmvn_stats(ds)
        out = apply_cmvn(ds, mean, std).to_pandas()
        m = np.stack(out["embedding"].to_numpy()).astype(np.float64)
        assert np.allclose(m.mean(axis=0), 0.0, atol=1e-5)
        assert np.allclose(m.std(axis=0), 1.0, atol=1e-4)
