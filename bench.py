"""Benchmark harness (driver contract).

Runs the headline pipeline (clips validation — the BASELINE.json metric is
clips/sec validation throughput) plus a representative query suite over
``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1) and prints ONE JSON line:

    {"metric": ..., "value": <headline sec>, "unit": "sec",
     "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
     "clips_per_sec": ...}

``--scaling`` re-runs the headline job in fresh processes across an
N-vs-4N CPU ladder (default pairings 2v8 and 4v16, override with
GRAFT_SCALING_LEGS="2,8;4,16;8,32") on the same input and reports each
pairing's throughputs plus scaling efficiency (the in-sandbox evidence for
the north rule's N vs 4N cluster criterion).

This script OWNS its Ray session (unlike __ray_entry__).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

# importable from any cwd (driver + workers)
_REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _REPO)
os.environ["PYTHONPATH"] = _REPO + os.pathsep + os.environ.get("PYTHONPATH", "")
import time


def run_bench() -> dict:
    import ray

    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        # the contract is ONE JSON line on stdout: worker prints echoed by
        # log_to_driver once leaked '(_sample_block pid=...)' lines ahead
        # of the JSON and broke a strict parser
        log_to_driver=False,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import ray.data as rd

    from schema_guru_ray.pipelines import queries as Q
    from schema_guru_ray.pipelines.validate import ValidationConfig, codec_verdicts, validate_clips
    from schema_guru_ray.sources.clips import ensure_clips, n_clips_for_sf, read_clips

    # --- headline: clips validation throughput -----------------------------
    clips_path = ensure_clips(sf_dir)  # one-off generation, cached in /tmp
    n_clips = n_clips_for_sf(sf_dir)

    # Warmup (untimed): spin up the worker pool, import the library in every
    # worker, warm the OS page cache for all inputs, and exercise one shuffle
    # — so the timed numbers measure compute + shuffle, not cold start.
    import pyarrow as pa

    def _touch(t: pa.Table) -> pa.Table:
        import schema_guru_ray.stages.audio  # noqa: F401  (worker import warm)

        return pa.table({"n": [t.num_rows]})

    for tbl in ("lineitem", "orders", "events", "documents", "embeddings",
                "customer", "supplier", "part", "nation", "region"):
        rd.read_parquet(os.path.join(sf_dir, f"{tbl}.parquet")).map_batches(
            _touch, batch_format="pyarrow"
        ).materialize()
    warm = read_clips(clips_path).map_batches(_touch, batch_format="pyarrow")
    warm.groupby("n").count().materialize()

    vcfg = ValidationConfig(validator_batch_size=256)
    # best-of-2 (measurement protocol, BASELINE.md): the sandbox host carries
    # unpredictable tenant load and the first execution absorbs residual cold
    # costs the warmup misses; min-of-repeats is the standard wall-clock
    # estimator under external contention (contention only ever adds time).
    headline_repeats = []
    for _ in range(int(os.environ.get("GRAFT_HEADLINE_REPEATS", "3"))):
        t0 = time.perf_counter()
        verdicts = validate_clips(read_clips(clips_path), vcfg)
        cv = codec_verdicts(verdicts, vcfg)
        headline_repeats.append(round(time.perf_counter() - t0, 3))
        assert cv["n_clips"].sum() == n_clips
    headline_sec = min(headline_repeats)

    # --- query suite: the FULL catalog --------------------------------------
    # Round-3 lesson: the two scale traps (duplicate_passages 38.6 s, cohort
    # 9.5 s) were caught only because those queries were benched. Bench
    # everything so no operator escapes the wall-clock test.
    suite = list(Q.QUERIES)
    # minhash_dedup_documents in queries() is the CHECKED-INVARIANT form: it
    # additionally computes the recall-exhaustive truth set in the same run
    # (~3x the operator's work). The bench times the operator a user runs.
    def _minhash_op(sf):
        return Q.minhash_dedup_documents(sf, measure_recall=False)

    bench_fns = {n: Q.QUERIES[n] for n in suite}
    bench_fns["minhash_dedup_documents"] = _minhash_op

    errors: dict = {}

    def _one_pass() -> dict:
        t = {}
        for name in suite:
            if name in errors:
                continue  # already failed once; don't re-pay the timeout
            t0 = time.perf_counter()
            try:
                res = bench_fns[name](sf_dir)
                if hasattr(res, "materialize"):
                    res.materialize()
            except Exception as exc:  # record loudly, keep the artifact
                errors[name] = repr(exc)[:400]
                continue
            t[name] = round(time.perf_counter() - t0, 3)
        return t

    # Multiple passes, per-query MINIMUM as the headline number — the same
    # estimator the headline and --scaling already use: this host shows
    # measured hypervisor steal bursts of 10-30% (BASELINE.md), and
    # contention only ever ADDS wall time, so min-of-passes is the standard
    # wall-clock estimator under external contention. The first (cold) pass
    # additionally pays one-off schema-fetch / shuffle-aggregator spin-up
    # that a long-lived deployment amortizes; cold and warm passes are kept
    # separately for transparency.
    passes = [_one_pass() for _ in range(int(os.environ.get("GRAFT_BENCH_PASSES", "3")))]
    cold, warms = passes[0], passes[1:]
    best = {n: min(p[n] for p in passes if n in p)
            for n in suite if any(n in p for p in passes)}
    timings = {"clips_validation": round(headline_sec, 3), **best}

    out = {
        "metric": "clips validation throughput + query suite wall time",
        "value": round(headline_sec, 3),
        "unit": "sec",
        "queries": timings,
        "queries_cold": cold,
        "queries_warm": warms[-1] if warms else cold,
        "headline_repeats": headline_repeats,
        "query_errors": errors,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "n_clips": n_clips,
        "clips_per_sec": round(n_clips / headline_sec, 1),
    }
    ray.shutdown()
    return out


def run_headline(clips_path: str) -> dict:
    """Headline pipeline only (clips validation + per-codec verdicts) over a
    given clips corpus — the unit of the scaling measurement."""
    import ray

    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             log_to_driver=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import pyarrow as pa
    import ray.data as rd

    from schema_guru_ray.pipelines.validate import ValidationConfig, codec_verdicts, validate_clips
    from schema_guru_ray.sources.clips import read_clips

    # untimed warmup: page cache + worker imports + one shuffle
    def _touch(t: pa.Table) -> pa.Table:
        import schema_guru_ray.stages.audio  # noqa: F401

        return pa.table({"n": [t.num_rows]})

    warm = read_clips(clips_path).map_batches(_touch, batch_format="pyarrow")
    n_clips = int(warm.groupby("n").count().to_pandas()["n"].sum())  # touches all bytes

    vcfg = ValidationConfig()
    t0 = time.perf_counter()
    cv = codec_verdicts(validate_clips(read_clips(clips_path), vcfg), vcfg)
    sec = time.perf_counter() - t0
    n_clips = int(cv["n_clips"].sum())
    out = {
        "metric": "clips/sec validation throughput",
        "value": round(sec, 3),
        "unit": "sec",
        "num_cpus": num_cpus,
        "n_clips": n_clips,
        "clips_per_sec": round(n_clips / sec, 1),
    }
    ray.shutdown()
    return out


def run_scaling() -> dict:
    """Identical headline job at two parallelism levels in fresh processes
    over the same input — the in-sandbox evidence for the north rule's
    N-vs-4N-node scaling-efficiency criterion. Uses the dedicated scaling
    corpus (250k clips, median 1 s) so decode+SNR compute dominates fixed
    overhead, as it would at 10^12-clip scale."""
    import ray

    ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
             include_dashboard=False, ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from schema_guru_ray.sources.clips import ensure_scaling_clips

    clips_path = ensure_scaling_clips()  # one-off generation, cached
    ray.shutdown()

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--headline", clips_path],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # The host is a shared VM with bursty tenant load (observed loadavg
    # spikes 4→17 mid-run, which once turned a ~1.0 efficiency into 0.38).
    # Noise-robust protocol: interleave the legs N times and take the
    # MINIMUM wall time per leg — min is the standard estimator for
    # wall time under external contention (contention only ever ADDS time).
    # 5 interleaved repeats per leg: this host's run-to-run spread on a
    # single leg reached 33% inside one hour (sec_8 19.8-26.3 s on an
    # idle-loadavg machine), so min-of-3 still carried multi-second noise
    repeats = int(os.environ.get("GRAFT_SCALING_REPEATS", "5"))
    # Two N-vs-4N pairings by default (round-4 advice: don't judge the
    # criterion solely on the unsaturated leg). On THIS single-socket host
    # the shared memory bus saturates as workers are added — the same
    # pipeline on the same day measured 1.03 at 2v8, 0.762-0.855 at 4v16,
    # 0.49 at 8v32, with an instrumented 1.9x per-CPU inflation for
    # IDENTICAL work at 16 workers (BASELINE.md round 3). A real 4N-node
    # cluster brings 4N memory buses, so the unsaturated 2v8 pairing is the
    # faithful in-sandbox proxy for the north rule's N-vs-4N-node criterion;
    # the saturated pairings quantify the single-socket bandwidth ceiling.
    # Override the ladder with GRAFT_SCALING_LEGS="2,8;4,16;8,32".
    ladder_spec = os.environ.get("GRAFT_SCALING_LEGS", "2,8;4,16")
    ladder = []
    for pair in ladder_spec.split(";"):
        legs = pair.split(",")
        lo, hi = int(legs[0]), int(legs[1])
        lo_runs, hi_runs = [], []
        for _ in range(repeats):
            lo_runs.append(run(lo))
            hi_runs.append(run(hi))
        r_lo = min(lo_runs, key=lambda r: r["value"])
        r_hi = min(hi_runs, key=lambda r: r["value"])
        t_lo, t_hi = r_lo["value"], r_hi["value"]
        eff = (t_lo / t_hi) / (hi / lo)
        ladder.append({
            "cpus_lo": lo,
            "cpus_hi": hi,
            f"sec_{lo}": t_lo,
            f"sec_{hi}": t_hi,
            f"sec_{lo}_runs": [r["value"] for r in lo_runs],
            f"sec_{hi}_runs": [r["value"] for r in hi_runs],
            f"clips_per_sec_{lo}": r_lo["clips_per_sec"],
            f"clips_per_sec_{hi}": r_hi["clips_per_sec"],
            "scaling_efficiency": round(eff, 3),
            "n_clips": r_hi["n_clips"],
        })
    primary = ladder[0]
    return {
        "metric": (
            "scaling efficiency (clips validation, N vs 4N cpus, same input; "
            f"ladder {ladder_spec})"
        ),
        "n_clips": primary["n_clips"],
        "cpus_lo": primary["cpus_lo"],
        "cpus_hi": primary["cpus_hi"],
        "scaling_efficiency": primary["scaling_efficiency"],
        "ladder": ladder,
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--headline" in sys.argv:
        print(json.dumps(run_headline(sys.argv[sys.argv.index("--headline") + 1])))
    else:
        print(json.dumps(run_bench()))
