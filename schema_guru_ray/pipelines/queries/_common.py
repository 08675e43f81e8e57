"""Named query/operator catalog backing ``__ray_entry__.queries()``.

Every function takes ``sf_dir`` and returns a Dataset / pandas DataFrame /
pyarrow Table. Numeric aggregate outputs use integer cents / explicit
rounding so the Ray result and the DuckDB oracle hash identically despite
floating-point summation order (driver compares row-count + schema +
order-insensitive value hash; column names must match the SQL aliases
EXACTLY).

None of these call ray.init — the driver owns the session."""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from schema_guru_ray.context import SchemaContext
from schema_guru_ray.stages.joins import sorted_lookup

def _read(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


def _read_documents(sf_dir: str):
    """``documents(doc_id, text)`` in at least 8 blocks and never fewer than
    the read produced: a small single-file corpus arrives as ONE block (so
    the per-document stages would not parallelize), while a large one keeps
    its own block count instead of being capped at 8."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"]).materialize()
    return ds.repartition(max(8, ds.num_blocks()))



def _meta_rows(sf_dir: str, table: str) -> int:
    """Row count from parquet FOOTER metadata — free, no plan execution.
    Used to size join buckets for DERIVED datasets (whose ``.count()``
    would execute the upstream plan once just to pick a bucket count,
    then the join would execute it again)."""
    import pyarrow.parquet as pq

    return pq.ParquetFile(os.path.join(sf_dir, f"{table}.parquet")).metadata.num_rows


def _pq_schema(sf_dir: str, table: str, columns=None) -> pa.Schema:
    """Arrow schema of a testdata table from the parquet FOOTER — free, no
    plan execution. Pass as the schema hint of join/aggregate operators so
    (a) derived sides don't execute their plan just to infer types and
    (b) the operator keeps working when the table (or a filtered slice of
    it) is EMPTY — Ray loses the schema of empty derived datasets
    (``ds.schema()`` → None), which would otherwise crash the operator."""
    import pyarrow.parquet as pq

    sch = pq.ParquetFile(
        os.path.join(sf_dir, f"{table}.parquet")
    ).schema_arrow
    if columns is None:
        return sch
    return pa.schema([sch.field(c) for c in columns])


def _renamed_schema(sch: pa.Schema, renames: dict) -> pa.Schema:
    """Schema hint for a ``rename_columns``-derived side."""
    return pa.schema([(renames.get(f.name, f.name), f.type) for f in sch])


def _pandas_cols(out, columns, dtypes=None) -> pd.DataFrame:
    """Materialize a query result to pandas with GUARANTEED columns.

    Ray's ``to_pandas()`` on a fully-empty dataset returns a bare
    ``DataFrame()`` with no columns at all (empty blocks are canonical
    0-column blocks and UDFs never run on them) — so any driver-side fold
    that indexes columns crashes exactly when one shard-day of a 100 TB
    run comes up empty. Reindexing to the expected columns (typed when
    ``dtypes`` is given) restores the contract."""
    if isinstance(out, pa.Table):
        df = out.to_pandas()
    elif isinstance(out, pd.DataFrame):
        df = out
    else:
        df = out.to_pandas()
    if df.empty:
        df = df.reindex(columns=list(columns))
        if dtypes:
            df = df.astype({c: t for c, t in dtypes.items() if c in df.columns})
        return df
    return df


def _scalar_or(value, default):
    """Ray scalar aggregates (``ds.sum``/``min``/``max``) return None on
    empty input; substitute the algebraic identity."""
    return default if value is None else value


def _int_units(values: np.ndarray, scale: int) -> pd.Series:
    """NaN-safe half-up integer conversion (SQL round semantics): NULLs stay
    NA and are skipped by pandas group sums, like SQL sum()."""
    with np.errstate(invalid="ignore"):
        return pd.Series(np.floor(values * scale + 0.5)).astype("Int64")


def _pa(df: pd.DataFrame) -> pa.Table:
    """Convert a pandas partial's output to an Arrow block BEFORE it enters
    a groupby/sort. Ray's sort shuffle handles pandas blocks via a slow
    path — the identical aggregate plan measured 15.9 s on pandas partial
    blocks vs 3.7 s with this one-line conversion at sf0.1 (round-4
    full-catalog bench root cause). Use on every per-batch partial whose
    kernel needs pandas but whose output feeds a shuffle."""
    return pa.Table.from_pandas(df, preserve_index=False)
