"""Unit tests for stages/warm.py — warm-task kernel execution."""

import numpy as np
import pandas as pd
import pyarrow as pa

from schema_guru_ray.stages import warm
from schema_guru_ray.stages.warm import warm_kernel


class _CountingKernel:
    constructions = 0

    def __init__(self, scale: int = 1):
        type(self).constructions += 1
        self.scale = scale

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.set_column(
            0, "n", pc.multiply(batch["n"], self.scale)
        )


class TestWarmKernel:
    def test_constructs_once_per_config(self):
        warm._CACHE.clear()
        _CountingKernel.constructions = 0
        fn = warm_kernel(_CountingKernel, scale=3)
        batch = pa.table({"n": [1, 2, 3]})
        out1 = fn(batch)
        out2 = fn(batch)
        assert _CountingKernel.constructions == 1
        assert out1["n"].to_pylist() == [3, 6, 9]
        assert out2["n"].to_pylist() == [3, 6, 9]

    def test_distinct_configs_distinct_instances(self):
        warm._CACHE.clear()
        _CountingKernel.constructions = 0
        f2 = warm_kernel(_CountingKernel, scale=2)
        f5 = warm_kernel(_CountingKernel, scale=5)
        batch = pa.table({"n": [10]})
        assert f2(batch)["n"].to_pylist() == [20]
        assert f5(batch)["n"].to_pylist() == [50]
        assert _CountingKernel.constructions == 2

    def test_name_reflects_kernel(self):
        fn = warm_kernel(_CountingKernel)
        assert fn.__name__ == "warm__CountingKernel"

    def test_through_map_batches(self, ray_session):
        import ray.data as rd

        # Defined inside the test so cloudpickle ships the class by value —
        # Ray workers cannot import the test module itself.
        class ScaleKernel:
            def __init__(self, scale: int = 1):
                self.scale = scale

            def __call__(self, batch: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                return batch.set_column(0, "n", pc.multiply(batch["n"], self.scale))

        # Regression: a driver-side cached instance of a class workers can't
        # import (this test module) must NOT ship with the serialized UDF.
        warm_kernel(_CountingKernel, scale=7)(pa.table({"n": [1]}))
        assert any(k[0] == __name__ for k in warm._CACHE)

        ds = rd.from_pandas(pd.DataFrame({"n": range(32)}))
        out = ds.map_batches(
            warm_kernel(ScaleKernel, scale=4),
            batch_format="pyarrow", batch_size=8,
        ).to_pandas()
        assert sorted(out["n"]) == [i * 4 for i in range(32)]


class _FakeRef:
    """Stands in for an ObjectRef: ``fetch`` keys the cache on ``hex()``."""

    def __init__(self, name: str):
        self.name = name

    def hex(self) -> str:
        return self.name


class TestFetch:
    def test_repeated_ref_gets_once(self, monkeypatch):
        import ray

        warm._CACHE.clear()
        calls = []
        monkeypatch.setattr(ray, "get", lambda ref: calls.append(ref) or ref.name)
        ref = _FakeRef("a")
        assert [warm.fetch(ref) for _ in range(3)] == ["a", "a", "a"]
        assert calls == [ref]

    def test_cache_holds_at_most_the_bound(self, monkeypatch):
        import ray

        warm._CACHE.clear()
        monkeypatch.setattr(ray, "get", lambda ref: ref.name)
        for i in range(warm.CACHE_ENTRIES + 5):
            warm.fetch(_FakeRef(f"r{i}"))
        assert len(warm._CACHE) == warm.CACHE_ENTRIES
        # the newest refs stay; the oldest were evicted
        assert ("ray.get", f"r{warm.CACHE_ENTRIES + 4}") in warm._CACHE
        assert ("ray.get", "r0") not in warm._CACHE

    def test_kernels_and_values_share_one_lru(self, monkeypatch):
        import ray

        warm._CACHE.clear()
        _CountingKernel.constructions = 0
        monkeypatch.setattr(ray, "get", lambda ref: ref.name)
        batch = pa.table({"n": [1]})
        warm_kernel(_CountingKernel, scale=2)(batch)  # oldest entry
        warm.fetch(_FakeRef("kept"))
        warm_kernel(_CountingKernel, scale=2)(batch)  # touched: now newest
        for i in range(warm.CACHE_ENTRIES - 1):
            warm.fetch(_FakeRef(f"r{i}"))
        # one past the bound: the least recently used entry, the "kept"
        # value, goes first; the re-used kernel survives
        assert ("ray.get", "kept") not in warm._CACHE
        assert len(warm._CACHE) == warm.CACHE_ENTRIES
        warm_kernel(_CountingKernel, scale=2)(batch)
        assert _CountingKernel.constructions == 1
        # more distinct entries evict the kernel too, and it is rebuilt
        for i in range(warm.CACHE_ENTRIES):
            warm.fetch(_FakeRef(f"s{i}"))
        warm_kernel(_CountingKernel, scale=2)(batch)
        assert _CountingKernel.constructions == 2

    def test_fetch_through_map_batches(self, ray_session):
        import ray
        import ray.data as rd

        ref = ray.put(np.arange(4, dtype=np.int64))

        def add(batch: pd.DataFrame) -> pd.DataFrame:
            from schema_guru_ray.stages.warm import fetch

            return batch.assign(n=batch["n"] + fetch(ref)[batch["n"] % 4])

        out = rd.from_pandas(pd.DataFrame({"n": range(16)})).map_batches(
            add, batch_format="pandas", batch_size=4
        ).to_pandas()
        assert sorted(out["n"]) == sorted(i + i % 4 for i in range(16))


def test_kernel_state_lives_only_in_warm_module():
    """No kernel runs in an actor pool and no module but stages/warm.py keeps
    per-worker state: the actor-pool fork's options and sizing stay gone,
    and no module-level ``_*CACHE`` dict copies warm.py's cache.
    ``functools.lru_cache`` on pure helpers is fine."""
    import pathlib
    import re

    root = pathlib.Path(warm.__file__).parents[2]
    banned = re.compile(
        r"concurrency=|fn_constructor_kwargs|mode: str|validator_mode"
        r"|validator_concurrency|validator_num_cpus|GRAFT_VALIDATOR_MODE")
    module_cache = re.compile(r"^_[A-Z_]*CACHE\s*[:=]")
    paths = sorted((root / "schema_guru_ray").rglob("*.py"))
    paths += sorted((root / "jobs").rglob("*.py")) + [root / "bench.py"]
    hits = []
    for path in paths:
        rel = path.relative_to(root).as_posix()
        for no, line in enumerate(path.read_text().splitlines(), 1):
            if banned.search(line) or (
                module_cache.search(line)
                and rel != "schema_guru_ray/stages/warm.py"
            ):
                hits.append(f"{rel}:{no}: {line.strip()}")
    assert not hits, "\n".join(hits)
