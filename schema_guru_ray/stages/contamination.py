"""Benchmark n-gram decontamination for training corpora.

The standard pre-training hygiene step (GPT-3 appendix-C style): extract
token n-grams from a *benchmark* suite, then drop / flag every corpus
document that shares an n-gram with it. Shape at 100 TB:

* the benchmark side is a fixed, small asset (MBs of eval sets) at ANY
  corpus scale — its distinct gram set is built once and broadcast via
  ``ray.put`` (read once per worker, never re-shipped per batch);
* the corpus side streams: one stateless ``map_batches`` pass probes each
  document's vectorized rolling-hash window set against the broadcast
  SORTED uint64 benchmark-gram-hash array (``np.searchsorted`` — no
  per-row Python in the hot loop), then recounts EXACTLY by string only
  for the hash-flagged documents. Equal gram strings always hash equal,
  so the hash pass has no misses; collisions only over-flag, and the
  string recount removes them — the result is byte-exact vs the oracle
  (the Misra-Gries bucket-then-recount shape, same trade the
  repeated-passage detector documents). NO shuffle, no materialization;
  output is (id, n_hits, contaminated) rows.

Real deployments use 8–13-gram windows; ``n`` is a parameter (the catalog
query uses 3 because the synthetic corpus' tiny vocabulary makes longer
windows collision-free and the check vacuous).

Tokenization is ``\\S+`` over lowercased text — chosen to be exactly
replayable by the DuckDB oracle (``regexp_extract_all(lower(text),
'\\S+')``), mirroring the reference's "conformance requires identical
normalization" discipline (JsonPathExtractor.scala:45).
"""

from __future__ import annotations

import re
from itertools import chain
from typing import FrozenSet, Set, Tuple

import numpy as np
import pandas as pd

from schema_guru_ray.stages.dedup import shingle_combine
from schema_guru_ray.stages.profile import stable_hash64
from schema_guru_ray.stages.warm import fetch

TOKEN_RE = re.compile(r"\S+")


def doc_grams(text: str, n: int) -> Set[str]:
    """Distinct space-joined token n-grams of one document."""
    toks = TOKEN_RE.findall(text.lower())
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


class GramSetExtractor:
    """Per-batch DISTINCT gram emitter (pre-dedup before any exchange)."""

    def __init__(self, n: int, column: str = "text"):
        self.n = n
        self.column = column

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        grams: Set[str] = set()
        for t in batch[self.column].fillna(""):
            grams |= doc_grams(t, self.n)
        return pd.DataFrame({"g": sorted(grams)})


def build_benchmark_grams(bench_ds, n: int, column: str = "text") -> FrozenSet[str]:
    """Distinct n-grams of the benchmark suite. Per-batch sets pre-dedup,
    then ``Dataset.unique`` does the (tiny) global distinct; the result is
    a driver-side frozenset because the benchmark side is small by
    construction — the CORPUS never takes this path."""
    gram_ds = bench_ds.map_batches(
        GramSetExtractor(n, column), batch_format="pandas"
    )
    # Dataset.unique returns None (not []) on a fully-empty input — an
    # empty benchmark suite simply contaminates nothing
    return frozenset(gram_ds.unique("g") or [])


def hash_gram_strings(grams, n: int) -> np.ndarray:
    """Sorted uint64 hashes of n-token gram strings, computed with the SAME
    token-hash + rolling combine as :func:`gram_window_hashes` — so a
    corpus window hash equals a benchmark gram hash iff (modulo 64-bit
    collisions) the strings are equal."""
    grams = list(grams)
    if not grams:
        return np.zeros(0, np.uint64)
    toks = pd.Series(grams, dtype="object").str.split(" ")
    lens = toks.map(len).to_numpy()
    if not (lens == n).all():
        raise ValueError(f"benchmark grams must have exactly {n} tokens")
    flat = list(chain.from_iterable(toks))
    codes, uniq = pd.factorize(pd.Series(flat, dtype="object"))
    th = stable_hash64(pd.Series(uniq)).astype(np.uint64)[codes]
    th = th.reshape(len(grams), n)
    _SC = shingle_combine(n)  # supports n > 8 (8-13-gram deployments)
    with np.errstate(over="ignore"):
        h = np.zeros(len(grams), np.uint64)
        for j in range(n):
            h += th[:, j] * _SC[j]
    return np.sort(h)


def gram_window_hashes(texts: pd.Series, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized corpus-side gram hashing: every full n-token window of
    every document, as (doc_index, uint64 window hash) arrays. Documents
    shorter than ``n`` tokens contribute nothing (matching
    :func:`doc_grams`'s empty set)."""
    tok_lists = texts.str.lower().str.findall(TOKEN_RE)
    lengths = tok_lists.map(len).to_numpy()
    flat = list(chain.from_iterable(tok_lists))
    n_win = len(flat) - n + 1
    if n_win <= 0:
        return np.zeros(0, np.int64), np.zeros(0, np.uint64)
    codes, uniq = pd.factorize(pd.Series(flat, dtype="object"))
    th = stable_hash64(pd.Series(uniq)).astype(np.uint64)[codes]
    doc_idx = np.repeat(np.arange(len(texts)), lengths)
    # NB: near-duplicate of dedup.shingle_hash_batch's window fold, kept
    # separate because the tokenizers differ (TOKEN_RE here vs \S+ there)
    _SC = shingle_combine(n)
    with np.errstate(over="ignore"):
        gh = np.zeros(n_win, np.uint64)
        for j in range(n):
            gh += th[j : j + n_win] * _SC[j]
    valid = doc_idx[:n_win] == doc_idx[n - 1 :]
    return doc_idx[:n_win][valid], gh[valid]


def exact_hit_counts(
    texts: pd.Series, hash_arr: np.ndarray, grams: FrozenSet[str], n: int
) -> np.ndarray:
    """Distinct shared-gram count per document: vectorized hash probe
    (searchsorted against the sorted benchmark hashes), then an exact
    string recount ONLY for hash-flagged documents. No misses (equal
    strings hash equal); collisions are corrected by the recount."""
    didx, gh = gram_window_hashes(texts, n)
    hits = np.zeros(len(texts), np.int64)
    if len(gh) and len(hash_arr):
        i = np.clip(np.searchsorted(hash_arr, gh), 0, len(hash_arr) - 1)
        flagged = np.unique(didx[hash_arr[i] == gh])
        for d in flagged:
            hits[d] = len(doc_grams(texts.iloc[d], n) & grams)
    return hits


def _score_batch(batch: pd.DataFrame, *, probe_ref, n: int, column: str,
                 id_column: str) -> pd.DataFrame:
    """Stateless scoring kernel over the broadcast (sorted-hash-array,
    gram-frozenset) probe pair, fetched once per worker process."""
    hash_arr, grams = fetch(probe_ref)
    hits = exact_hit_counts(batch[column].fillna(""), hash_arr, grams, n)
    out = pd.DataFrame(
        {
            id_column: batch[id_column].astype("int64"),
            "n_hits": pd.Series(hits, dtype="int64"),
        }
    )
    out["contaminated"] = (out["n_hits"] > 0).astype("int64")
    return out


def flag_contaminated(corpus_ds, bench_grams: FrozenSet[str], n: int,
                      column: str = "text", id_column: str = "doc_id"):
    """Flag every corpus document sharing an n-gram with the benchmark set.

    Returns a Dataset of (id, n_hits, contaminated) — ``n_hits`` counts
    DISTINCT shared grams. Pure streaming map; callers drop flagged rows
    with a semi-join on ``contaminated == 0`` or filter inline.
    """
    import ray

    ref = ray.put((hash_gram_strings(bench_grams, n), bench_grams))
    return corpus_ds.map_batches(
        _score_batch,
        fn_kwargs=dict(probe_ref=ref, n=n, column=column, id_column=id_column),
        batch_format="pandas",
    )
