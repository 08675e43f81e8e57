"""ColumnProfile merge algebra: associativity/commutativity properties and
grouped profiling over a skewed key."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schema_guru_ray.stages.profile import (
    ColumnProfile,
    TableProfiler,
    merge_profile_rows,
    profile_column,
)


def _prof(values):
    arr = pa.array(values)
    return profile_column(arr, "x")


chunks = st.lists(
    st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=32), st.none()),
        min_size=0,
        max_size=30,
    ),
    min_size=2,
    max_size=5,
)


@given(chunks)
@settings(max_examples=50, deadline=None)
def test_merge_equals_whole(parts):
    whole = _prof([v for p in parts for v in p])
    merged = None
    for p in parts:
        prof = _prof(p)
        merged = prof if merged is None else merged.merge(prof)
    assert merged.non_null == whole.non_null
    assert merged.nulls == whole.nulls
    assert merged.minimum == whole.minimum
    assert merged.maximum == whole.maximum
    # EXACT equality: total is carried as a Shewchuk expansion, so the
    # correctly-rounded sum is identical under any merge grouping (the
    # round-2 pinned counterexample [[-9007198717870080.0],
    # [1.0, 9007199254740992.0]] exercises absorption at 2^53)
    assert merged.total == whole.total


@given(chunks)
@settings(max_examples=25, deadline=None)
def test_merge_commutative(parts):
    profs = [_prof(p) for p in parts]
    fwd = profs[0]
    for p in profs[1:]:
        fwd = fwd.merge(p)
    bwd = profs[-1]
    for p in reversed(profs[:-1]):
        bwd = bwd.merge(p)
    assert fwd.non_null == bwd.non_null
    assert fwd.minimum == bwd.minimum and fwd.maximum == bwd.maximum


@pytest.mark.usefixtures("ray_session")
def test_fold_profiles_tree_level(sf_dir, monkeypatch):
    """Tiny batches force state rows >> DRIVER_FOLD_ROWS so the
    distributed shard level engages; the driver then folds one state
    per group and the result is identical to the flat driver fold (the
    exact-expansion total makes even the float sum grouping-free)."""
    import ray.data as rd

    from schema_guru_ray import fold
    from schema_guru_ray.stages.profile import TableProfiler, fold_profiles

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    prof_ds = ds.map_batches(
        TableProfiler(["value"], with_sketches=False),
        batch_format="pyarrow",
        batch_size=16,
    ).materialize()
    n_states = prof_ds.count()
    assert n_states > 8  # the shard level must actually engage below
    monkeypatch.setattr(fold, "DRIVER_FOLD_ROWS", 8)
    monkeypatch.setattr(fold, "FANIN", 4)
    folded = fold_profiles(prof_ds)[""]["value"]
    whole = merge_profile_rows([r["profile"] for r in prof_ds.take_all()])["value"]
    assert folded.non_null == whole.non_null
    assert folded.nulls == whole.nulls
    assert folded.minimum == whole.minimum
    assert folded.maximum == whole.maximum
    assert folded.total == whole.total


@pytest.mark.usefixtures("ray_session")
def test_grouped_profile_counts(sf_dir):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    prof_ds = ds.map_batches(
        TableProfiler(["value"], by="event_type", with_sketches=False),
        batch_format="pyarrow",
        batch_size=128,  # many batches → real merging
    ).to_pandas()
    by_group = {}
    for _, row in prof_ds.iterrows():
        by_group.setdefault(row["group"], []).append(row["profile"])
    totals = {
        g: merge_profile_rows(bufs)["value"].non_null for g, bufs in by_group.items()
    }
    want = (
        pd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type"])
        .value_counts()
        .to_dict()
    )
    assert totals == {k[0]: v for k, v in want.items()}
