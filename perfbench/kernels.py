"""Ray-free kernel harness: in-process rates of the hot kernels on one batch
of the seeded inputs (the clips generator and the event generator).

Each kernel is timed by :func:`_per_call`, which repeats the call until a
sample lasts at least ``MIN_SAMPLE_S`` and reports the median of
``SAMPLES`` samples, so a rate does not hinge on one timer reading.
"""

from __future__ import annotations

import json
import pickle
import statistics
import time
from typing import Callable, Dict, Tuple

import numpy as np
import pyarrow as pa

MIN_SAMPLE_S = 0.04
SAMPLES = 5


def _per_call(fn: Callable[[], object]) -> float:
    """Median seconds per call of ``fn``."""
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-6)
    reps = max(1, int(MIN_SAMPLE_S / once))
    samples = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples)


def clip_kernels(seed: int, n_clips: int) -> Dict[str, Tuple[float, str]]:
    """sources, audio, stages.audio, sketches and the codec partial."""
    from schema_guru_ray.audio import synth
    from schema_guru_ray.audio.wav import WavDecodeError, decode_wav, snr_db_ref_f32
    from schema_guru_ray.pipelines.validate import CodecPartialAggregator, ValidationConfig
    from schema_guru_ray.sketches.drift import ks_statistic, psi
    from schema_guru_ray.sketches.hll import HLL
    from schema_guru_ray.sketches.kll import KLL
    from schema_guru_ray.sources.clips import CLIPS_SCHEMA, ClipsConfig, generate_rows
    from schema_guru_ray.stages.audio import ClipValidator

    cfg = ClipsConfig(seed=seed)
    idx = np.arange(n_clips)
    gen_s = _per_call(lambda: generate_rows(idx, cfg))
    batch = pa.Table.from_pydict(generate_rows(idx, cfg), schema=CLIPS_SCHEMA)
    validator = ClipValidator()
    validate_s = _per_call(lambda: validator(batch))
    verdicts = validator(batch)

    decoded = []
    for cid, buf in zip(batch["clip_id"].to_pylist(), batch["bytes"].to_pylist()):
        try:
            pcm, sr = decode_wav(buf)
        except WavDecodeError:
            continue
        decoded.append((cid, buf, pcm, sr))
    n_samples = sum(len(p) for _, _, p, _ in decoded)
    n_bytes = sum(len(b) for _, b, _, _ in decoded)
    refs = [synth.reference_pcm_f32(cid, sr, len(p)).copy() for cid, _, p, sr in decoded]

    def synth_all():
        for cid, _, p, sr in decoded:
            synth.reference_pcm_f32(cid, sr, len(p))

    def decode_all():
        for _, b, _, _ in decoded:
            decode_wav(b)

    def snr_all():
        for ref, (_, _, p, _) in zip(refs, decoded):
            snr_db_ref_f32(ref, p)

    rng = np.random.default_rng(seed)
    values = rng.lognormal(5.0, 0.8, 200_000)
    hashes = rng.integers(0, 2**63, 200_000, dtype=np.uint64)
    kll_a = KLL(800).add_many(values[:100_000])
    kll_b = KLL(800).add_many(values[100_000:] * 1.1)
    partials = CodecPartialAggregator(ValidationConfig())(verdicts)
    return {
        "sources.gen_rows_per_s": (n_clips / gen_s, "1/s"),
        "stages.audio.clips_per_s": (n_clips / validate_s, "1/s"),
        "audio.synth_msamples_per_s": (n_samples / _per_call(synth_all) / 1e6, "Msamples/s"),
        "audio.decode_mb_per_s": (n_bytes / _per_call(decode_all) / 1e6, "MB/s"),
        "audio.snr_msamples_per_s": (n_samples / _per_call(snr_all) / 1e6, "Msamples/s"),
        "sketches.kll_add_mvals_per_s": (
            values.size / _per_call(lambda: KLL(800).add_many(values)) / 1e6, "M/s"),
        "sketches.hll_add_mhashes_per_s": (
            hashes.size / _per_call(lambda: HLL(12).add_hashes(hashes)) / 1e6, "M/s"),
        "sketches.kll_merge_per_s": (1.0 / _per_call(lambda: kll_a.merge(kll_b)), "1/s"),
        "sketches.kll_bytes": (float(len(KLL(800).add_many(values).to_bytes())), "B"),
        "sketches.psi_ks_per_s": (
            1.0 / _per_call(lambda: (psi(kll_a, kll_b), ks_statistic(kll_a, kll_b))), "1/s"),
        "pipelines.validate.codec_agg_kb": (
            float(np.mean([len(b) for b in partials["agg"].to_pylist()])) / 1024, "KB"),
    }


def schema_kernels(seed: int, n_docs: int) -> Dict[str, Tuple[float, str]]:
    """stages.derive, schema.states and schema.finalize."""
    from schema_guru_ray.context import SchemaContext
    from schema_guru_ray.schema.finalize import merge_and_transform, validate_instance
    from schema_guru_ray.schema.states import ZERO, derive_instance, merge
    from schema_guru_ray.stages.derive import derive_arrow_batch, derive_json_batch

    from events import ENUM_CARDINALITY, TYPED_COLUMNS, make_events

    corpus = make_events(n_docs, seed)
    ctx = SchemaContext(enum_cardinality=ENUM_CARDINALITY, quantity=n_docs)
    texts = corpus.table["doc"].to_pylist()
    typed = corpus.table.select(list(TYPED_COLUMNS))
    docs = [json.loads(t) for i, t in enumerate(texts) if i not in corpus.bad_ids]
    docs = [d for d in docs if isinstance(d, dict)]
    states = [derive_instance(d, ctx) for d in docs]

    def fold():
        acc = ZERO
        for s in states:
            acc = merge(acc, s, ctx)
        return acc

    state = fold()
    schema = merge_and_transform(state, ctx)

    def validate_all():
        for d in docs:
            validate_instance(d, schema)

    return {
        "stages.derive.json_docs_per_s": (
            n_docs / _per_call(lambda: derive_json_batch(texts, ctx)), "1/s"),
        "stages.derive.arrow_rows_per_s": (
            n_docs / _per_call(lambda: derive_arrow_batch(typed, ctx)), "1/s"),
        "stages.derive.state_kb": (
            len(pickle.dumps(derive_json_batch(texts, ctx)[0])) / 1024, "KB"),
        "schema.states.merges_per_s": (len(states) / _per_call(fold), "1/s"),
        "schema.finalize.validate_docs_per_s": (len(docs) / _per_call(validate_all), "1/s"),
    }
