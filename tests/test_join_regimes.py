"""Keyed-join queries: the broadcast regime of ``stages.joins.join_keyed``
(default at test scale) and its shuffle regime (forced by patching
``joins.BROADCAST_BYTES`` to 0) must produce identical results — the regime
switch may change the plan, never the answer."""

import pandas as pd
import pytest

from schema_guru_ray.stages import joins


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    if not isinstance(df, pd.DataFrame):
        df = df.to_pandas()
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _run(fn, sf_dir, regime: str) -> pd.DataFrame:
    out = fn(sf_dir)
    assert joins.last_regime["op"] == "join_keyed"
    assert joins.last_regime["regime"] == regime
    assert joins.last_regime["small_bytes"] > 0
    return _canon(out)


def _regimes(fn, sf_dir, monkeypatch):
    broadcast = _run(fn, sf_dir, "broadcast")
    monkeypatch.setattr(joins, "BROADCAST_BYTES", 0)
    return broadcast, _run(fn, sf_dir, "shuffle")


@pytest.mark.usefixtures("ray_session")
class TestJoinRegimes:
    def test_revenue_by_region_regimes_agree(self, sf_dir, monkeypatch):
        from schema_guru_ray.pipelines.queries import revenue_by_region

        broadcast, bucketed = _regimes(revenue_by_region, sf_dir, monkeypatch)
        assert len(broadcast) > 0
        pd.testing.assert_frame_equal(broadcast, bucketed)

    def test_order_priority_regimes_agree(self, sf_dir, monkeypatch):
        from schema_guru_ray.pipelines.queries import order_priority_exists

        broadcast, joined = _regimes(order_priority_exists, sf_dir, monkeypatch)
        assert len(broadcast) > 0
        pd.testing.assert_frame_equal(broadcast, joined)

    @pytest.mark.parametrize(
        "fn_name",
        [
            "promo_revenue",
            "brand_supplier_distinct",
            "large_orders_having",
            "customer_order_distribution",
            "cohort_retention_events",
            "range_join_clicks_after_signup",
            "cross_source_leakage_documents",
            "customers_without_orders",
            # its one keyed join is verify_pairs_jaccard_distributed's
            # semi-join prune of the documents to candidate ids
            "near_dup_pairs_documents",
        ],
    )
    def test_part_and_survivor_regimes_agree(self, sf_dir, fn_name, monkeypatch):
        from schema_guru_ray.pipelines import queries

        broadcast, bucketed = _regimes(getattr(queries, fn_name), sf_dir,
                                       monkeypatch)
        assert len(broadcast) > 0
        pd.testing.assert_frame_equal(broadcast, bucketed)


def test_join_policy_lives_only_in_joins_module():
    """No module but stages/joins.py decides broadcast-or-shuffle: no
    per-site ``*broadcast_limit``, no second BROADCAST_BYTES, and no Bloom
    build (the Bloom-then-anti copies) outside joins.py and the Bloom
    module itself."""
    import pathlib
    import re

    pkg = pathlib.Path(joins.__file__).parents[1]
    roots = [pkg, pkg.parent / "jobs"]
    rules = [
        (re.compile(r"\w*broadcast_limit"), set()),
        (re.compile(r"\bBROADCAST_BYTES\s*=(?!=)"), {"stages/joins.py"}),
        (re.compile(r"\bbuild_bloom\("),
         {"stages/joins.py", "sketches/bloom.py"}),
    ]
    hits = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            for no, line in enumerate(path.read_text().splitlines(), 1):
                for pattern, allowed in rules:
                    if pattern.search(line) and rel not in allowed:
                        hits.append(f"{root.name}/{rel}:{no}: {line.strip()}")
    assert not hits, "\n".join(hits)
