"""Bloom filter: membership guarantees, FP rate, merge, semi/anti join."""

import numpy as np
import pandas as pd
import pytest

from schema_guru_ray.sketches.bloom import BloomFilter, build_bloom, semi_join_bloom


class TestBloomFilter:
    def test_no_false_negatives(self):
        f = BloomFilter.sized_for(1000)
        vals = pd.Series([f"key-{i}" for i in range(1000)])
        f.add_many(vals)
        assert f.contains_many(vals).all()

    def test_fp_rate_bounded(self):
        f = BloomFilter.sized_for(5000, fp_rate=0.01)
        f.add_many(pd.Series([f"in-{i}" for i in range(5000)]))
        probes = pd.Series([f"out-{i}" for i in range(20000)])
        fp = f.contains_many(probes).mean()
        assert fp < 0.03

    def test_merge_equals_whole(self):
        vals = pd.Series([f"k{i}" for i in range(2000)])
        proto = BloomFilter.sized_for(2000)
        a = BloomFilter(proto.n_bits, proto.n_hashes).add_many(vals[:1200])
        b = BloomFilter(proto.n_bits, proto.n_hashes).add_many(vals[1000:])
        whole = BloomFilter(proto.n_bits, proto.n_hashes).add_many(vals)
        assert np.array_equal(a.merge(b).bits, whole.bits)

    def test_serialization(self):
        f = BloomFilter.sized_for(100).add_many(pd.Series(["a", "b"]))
        rt = BloomFilter.from_bytes(f.to_bytes())
        assert rt.contains_many(pd.Series(["a", "b"])).all()
        assert not rt.contains_many(pd.Series(["zqx"])).any()

    def test_int_keys(self):
        f = BloomFilter.sized_for(100).add_many(pd.Series([1, 2, 3]))
        assert f.contains_many(pd.Series([1, 2, 3])).all()


@pytest.mark.usefixtures("ray_session")
class TestSemiJoinBloom:
    def test_semi_and_anti(self, sf_dir):
        import ray.data as rd

        orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
        customers = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
        semi = semi_join_bloom(orders, customers, on="o_custkey", keys_column="c_custkey")
        anti = semi_join_bloom(orders, customers, on="o_custkey", keys_column="c_custkey", anti=True)
        n_semi, n_anti, n_all = semi.count(), anti.count(), orders.count()
        assert n_semi + n_anti == n_all
        # exact check: every semi survivor's custkey is (probably) a customer;
        # verify against the exact set, allowing the documented FP slack
        keys = set(r["c_custkey"] for r in customers.take_all())
        fp = sum(1 for r in semi.take_all() if r["o_custkey"] not in keys)
        assert fp <= max(5, 0.03 * n_all)


@pytest.fixture(scope="module")
def orphan_dir(tmp_path_factory):
    """Synthetic customer/orders pair with a KNOWN orphan set — the sf
    testdata fixture has zero true orphans, which made the old regime test
    vacuous (round-2 ADVICE). 7 orphan rows over 3 orphan keys."""
    d = tmp_path_factory.mktemp("orphans")
    custkeys = np.arange(1, 101, dtype=np.int64)
    pd.DataFrame({"c_custkey": custkeys}).to_parquet(d / "customer.parquet")
    rng = np.random.default_rng(7)
    good = rng.choice(custkeys, size=500)
    orphans = np.array([1000, 1000, 1000, 1001, 1001, 2002, 2002], dtype=np.int64)
    keys = np.concatenate([good, orphans])
    pd.DataFrame(
        {
            "o_orderkey": np.arange(len(keys), dtype=np.int64),
            "o_custkey": keys,
        }
    ).to_parquet(d / "orders.parquet")
    return str(d), len(orphans)


def _force_shuffle(monkeypatch):
    """Force join_keyed's shuffle (Bloom-split) regime for the next call."""
    from schema_guru_ray.stages import joins

    monkeypatch.setattr(joins, "BROADCAST_BYTES", 0)


def _assert_regime(regime: str):
    from schema_guru_ray.stages import joins

    assert joins.last_regime["op"] == "join_keyed"
    assert joins.last_regime["regime"] == regime
    assert joins.last_regime["small_bytes"] > 0


@pytest.mark.usefixtures("ray_session")
class TestReferentialOrphansRegimes:
    def test_bloom_regime_matches_exact(self, orphan_dir, monkeypatch):
        """Forcing the huge-key-side regime must give the same orphan count
        as the exact broadcast regime — on a fixture that HAS orphans."""
        from schema_guru_ray.pipelines.queries import referential_orphans

        d, n_true = orphan_dir
        exact = referential_orphans(d)
        _assert_regime("broadcast")
        _force_shuffle(monkeypatch)
        bloom = referential_orphans(d)
        _assert_regime("shuffle")
        assert int(exact["n_orphans"].iloc[0]) == n_true
        assert int(bloom["n_orphans"].iloc[0]) == n_true

    def test_bloom_false_positive_orphans_still_counted(self, orphan_dir, monkeypatch):
        """Worst-case false positives, deterministically: a SATURATED Bloom
        (every bit set) reports every key present, so every true orphan is
        a false positive. The exact anti-join side of the scale regime must
        recover all of them — the round-2 ADVICE bug silently dropped them
        (a probabilistic regime test passes ~99% per orphan and can't catch
        that)."""
        from schema_guru_ray.pipelines.queries import referential_orphans
        from schema_guru_ray.sketches import bloom as bloom_mod

        def saturated(ds, column, n_items_hint=None, fp_rate=0.01):
            f = bloom_mod.BloomFilter(n_bits=64, n_hashes=1)
            f.bits[:] = 0xFF
            return f

        monkeypatch.setattr(bloom_mod, "build_bloom", saturated)
        d, n_true = orphan_dir
        _force_shuffle(monkeypatch)
        forced = referential_orphans(d)
        _assert_regime("shuffle")
        assert int(forced["n_orphans"].iloc[0]) == n_true

    def test_sf_fixture_regimes_agree(self, sf_dir, monkeypatch):
        from schema_guru_ray.pipelines.queries import referential_orphans

        exact = referential_orphans(sf_dir)
        _force_shuffle(monkeypatch)
        bloom = referential_orphans(sf_dir)
        _assert_regime("shuffle")
        assert int(exact["n_orphans"].iloc[0]) == int(bloom["n_orphans"].iloc[0])
