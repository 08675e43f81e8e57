"""Benchmark driver for schema_guru_ray's validate, infer and append jobs.

    python3 perfbench/run.py --workload validate_full --seed 1 --seconds 8 --trace 0

Run it from the root of a checkout. One closed-loop client runs one job at a
time against a local Ray session started with ``num_cpus`` = the count
``nproc`` reports. A run

1. sets up ``SETUPS`` times (Ray start, seeded corpus, and for
   append_incremental the initial checkpointed run), stopping Ray between
   set-ups; ``setup_s`` is the median;
2. times the first (cold) job on the last set-up's Ray session, then warm
   jobs for ``--seconds``; a job's wall time and the CPU seconds of the
   driver and every Ray process are both taken, and the CPU seconds carry
   the bounds;
3. with ``--trace 1``, instead splits ``--seconds`` between untraced and
   traced jobs, runs the Ray-free kernel harness, prints the per-layer
   metrics and writes every span to ``.perfbench/traces/``.

Every job's outputs are checked; a job that raises or fails a check counts
as failed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything the run
writes stays under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 2
MIN_JOBS = 2  # warm jobs per phase even when --seconds runs out first
OBJECT_STORE_BYTES = 512 * 1024**2
# a Ray session puts AF_UNIX sockets (at most 107 bytes of path) about 64
# bytes below its temp dir
RAY_SOCKET_SLACK = 64


def nproc() -> int:
    """The CPU count ``nproc`` prints: OMP_NUM_THREADS when set, else the
    CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    return int(omp) if omp.isdigit() and int(omp) > 0 else cpus


def _descendants() -> list:
    children: dict = {}
    for p in os.listdir("/proc"):
        if p.isdigit():
            try:
                with open(f"/proc/{p}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(p))
    out, todo = [], [os.getpid()]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


def tree_cpu_s() -> float:
    """CPU seconds used so far by this process and every process it started
    (Ray's GCS, raylet and workers), with the children each has reaped."""
    ticks = 0
    for pid in (os.getpid(), *_descendants()):
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += sum(int(x) for x in fields[11:15])  # utime stime cutime cstime
    return ticks / os.sysconf("SC_CLK_TCK")


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _short_path(path: str) -> str:
    """``path``, or when it is too long to hold Ray's sockets, the same
    directory reached through this process's working directory as
    ``/proc/<pid>/cwd/...``, which every process of the session can open
    while this one runs. ``path`` must lie under the working directory."""
    if len(path) + RAY_SOCKET_SLACK <= 107:
        return path
    rel = os.path.relpath(path, os.getcwd())
    if rel.startswith(".."):
        raise RuntimeError(f"{path} is not under the working directory")
    return os.path.join(f"/proc/{os.getpid()}/cwd", rel)


class RaySession:
    """A local Ray session whose files all live under the checkout, and
    whose processes are all gone when :meth:`stop` returns."""

    def __init__(self, temp_dir: str):
        os.makedirs(temp_dir, exist_ok=True)
        # Ray and Python put spill and scratch files in TMPDIR / RAY_TMPDIR
        # when /dev/shm is small; keep those in the checkout too
        os.environ["TMPDIR"] = os.environ["RAY_TMPDIR"] = temp_dir
        self.temp_dir = _short_path(temp_dir)

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES, _temp_dir=self.temp_dir)
        DataContext.get_current().enable_progress_bars = False

    def stop(self, timeout_s: float = 30.0) -> None:
        import ray

        procs = _descendants()
        ray.shutdown()
        deadline = time.monotonic() + timeout_s
        while True:
            for pid in procs:
                try:
                    os.waitpid(pid, os.WNOHANG)  # reap our own children
                except ChildProcessError:
                    pass
            left = [p for p in procs if _alive(p)]
            if not left:
                return
            if time.monotonic() > deadline:
                for p in left:
                    try:
                        os.kill(p, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                deadline = time.monotonic() + timeout_s
            time.sleep(0.05)


class Runner:
    """Counts attempts and failures; a failed job is reported, not timed.
    A job's time is a ``(wall seconds, CPU seconds)`` pair, the CPU seconds
    summed over the driver and every Ray process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def job(self, workload, fn):
        workload.prepare()
        self.attempted += 1
        c0, t0 = tree_cpu_s(), time.perf_counter()
        try:
            fn()
        except Exception:  # a job may fail in any layer; count it and go on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        return time.perf_counter() - t0, tree_cpu_s() - c0

    def loop(self, workload, fn, seconds: float) -> list:
        times = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or len(times) < MIN_JOBS:
            t = self.job(workload, fn)
            if t is not None:
                times.append(t)
            elif self.failed > self.attempted // 2:
                break
        return times


def _median(xs: list) -> float:
    if not xs:
        raise RuntimeError("no job succeeded")
    return statistics.median(xs)


def end_to_end(setup_times, cold, warm, rss_mb) -> dict:
    """The bounded metrics. A job's CPU seconds, not its wall time, carry a
    bound: on a shared host the wall time of the same job drifts by more than
    any bound a regression check could use (see notes.json)."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "first_job_cpu_s": (_median([c for _, c in cold]), "s"),
        "job_cpu_s": (_median([c for _, c in warm]), "s"),
        "driver_peak_rss_mb": (rss_mb, "MB"),
    }


def wall_times(workload, cold, warm) -> dict:
    """What a user waits for, printed beside the bounded metrics."""
    job_s = _median([w for w, _ in warm])
    return {
        "first_job_s": (_median([w for w, _ in cold]), "s"),
        "job_s": (job_s, "s"),
        "rows_per_s": (workload.rows_per_job / job_s, "1/s"),
    }


def per_layer(tr, untraced, seed: int, smoke: bool) -> dict:
    """Every per-layer metric. A layer the workload does not call reads 0;
    kernel rates come from in-process calls and exist on every workload."""
    from schema_guru_ray.pipelines.validate import DRIVER_FOLD_PARTIALS

    import kernels

    traced_jobs = [s["end"] - s["start"] for s in tr.spans if s["name"] == "job"]
    t, n = tr.total_s, tr.count
    partial_rows = n("pipelines.validate.partials", "rows")

    def cpu(name):
        # a stage's stats list its input's operators first; its own map is last
        ops = tr.stats.get(name)
        return ops[-1].get("remote_cpu_s", 0.0) if ops else 0.0

    m = {
        "trace.overhead_s": (_median(traced_jobs) - _median(untraced), "s"),
        "sources.read_s": (t("sources.read"), "s"),
        "sources.read_mb": (n("sources.read", "bytes") / 1e6, "MB"),
        "sources.blocks": (n("sources.read", "blocks"), "count"),
        "stages.audio.validate_s": (t("stages.audio.validate"), "s"),
        "stages.audio.task_cpu_s": (cpu("stages.audio.validate"), "s"),
        "stages.audio.violations": (
            n("pipelines.validate.violations", "rows")
            + n("state.checkpoint.resubmit", "violations"), "count"),
        "pipelines.validate.partials_s": (t("pipelines.validate.partials"), "s"),
        "pipelines.validate.partial_rows": (partial_rows, "count"),
        "pipelines.validate.partial_state_mb": (
            n("pipelines.validate.partials", "bytes") / 1e6, "MB"),
        # codec_verdicts builds the same partials before folding them, so
        # its fold is its wall time less the partials probe's
        "pipelines.validate.fold_s": (
            t("pipelines.validate.codec_verdicts") - t("pipelines.validate.partials")
            if partial_rows else 0.0, "s"),
        "pipelines.validate.fold_regime_tree": (
            float(partial_rows > DRIVER_FOLD_PARTIALS), "bool"),
        "pipelines.validate.violations_s": (t("pipelines.validate.violations"), "s"),
        "pipelines.validate.dedup_s": (t("pipelines.validate.dedup"), "s"),
        "pipelines.validate.merge_baselines_s": (t("pipelines.validate.merge_baselines"), "s"),
        "pipelines.validate.drift_s": (t("pipelines.validate.drift"), "s"),
        "stages.derive.json_s": (t("stages.derive.json"), "s"),
        "stages.derive.task_cpu_s": (cpu("stages.derive.json"), "s"),
        "schema.finalize.transform_s": (t("schema.finalize.transform"), "s"),
        "pipelines.infer.json_s": (t("pipelines.infer.json"), "s"),
        "pipelines.infer.typed_s": (t("pipelines.infer.typed"), "s"),
        "pipelines.infer.segmented_s": (t("pipelines.infer.segmented"), "s"),
        "pipelines.infer.fold_s": (t("pipelines.infer.fold"), "s"),
        "pipelines.validate_schema.validate_s": (t("pipelines.validate_schema.validate"), "s"),
        "pipelines.validate_schema.violations": (
            n("pipelines.validate_schema.validate", "rows"), "count"),
        "state.checkpoint.partitions_ran": (n("state.checkpoint.resubmit", "ran"), "count"),
        "state.checkpoint.partitions_skipped": (
            n("state.checkpoint.resubmit", "skipped"), "count"),
        "state.checkpoint.resubmit_s": (t("state.checkpoint.resubmit"), "s"),
        "state.checkpoint.partition_s": (n("state.checkpoint.resubmit", "partition_s"), "s"),
        "state.checkpoint.noop_resume_s": (t("state.checkpoint.noop_resume"), "s"),
        "state.checkpoint.bytes_written_per_clip": (
            n("state.checkpoint.resubmit", "bytes_per_clip"), "B"),
        "state.sketch_store.sketches_kb": (n("state.sketch_store.load_merge", "kb"), "KB"),
        "state.sketch_store.load_merge_s": (t("state.sketch_store.load_merge"), "s"),
    }
    m.update(kernels.clip_kernels(seed, 32 if smoke else 256))
    m.update(kernels.schema_kernels(seed, 200 if smoke else 1000))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny corpora and one set-up, for the benchmark's own tests")
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
    import schema_guru_ray  # noqa: F401  (fails here when the program is absent)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    state = os.path.join(ROOT, ".perfbench")
    work = os.path.join(state, f"w{os.getpid()}")
    session = RaySession(os.path.join(work, "ray"))
    runner = Runner()
    setups = 1 if args.smoke or args.trace else SETUPS
    setup_times, cold = [], []
    try:
        for i in range(setups):
            data = os.path.join(work, "data")
            shutil.rmtree(data, ignore_errors=True)
            t0 = time.perf_counter()
            session.start()
            workload.build(data)
            setup_times.append(time.perf_counter() - t0)
            if i + 1 < setups:
                session.stop()
        t = runner.job(workload, workload.iterate)
        if t is not None:
            cold.append(t)
        if not args.trace:
            warm = runner.loop(workload, workload.iterate, args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = end_to_end(setup_times, cold, warm, rss_mb)
            shown = wall_times(workload, cold, warm)
            print(f"perfbench: setup_s {setup_times} first_job (wall, cpu) {cold} "
                  f"job (wall, cpu) {warm}", file=sys.stderr)
        else:
            from spans import Tracer

            tr = Tracer()
            iterations = itertools.count()

            def traced():
                tr.iteration = next(iterations)
                workload.iterate_traced(tr)

            untraced = [w for w, _ in runner.loop(workload, workload.iterate, args.seconds / 2)]
            runner.loop(workload, traced, args.seconds / 2)
            metrics = per_layer(tr, untraced, args.seed, args.smoke)
            shown = {}
            os.makedirs(os.path.join(state, "traces"), exist_ok=True)
            tr.dump(os.path.join(state, "traces", f"{args.workload}-seed{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed,
                     "untraced_job_s": untraced})
    finally:
        session.stop()
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"{args.workload:<20} {name:<44} {value:>14.6g} {unit}")
    print(f"{args.workload:<20} {'error_rate':<44} "
          f"{runner.failed / runner.attempted:>14.6g} failed/attempted")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
