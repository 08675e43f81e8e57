"""Deduplication operators for training-data pipelines: exact,
MinHash+LSH, SimHash, n-gram Jaccard verification, embedding-cosine
near-dup.

Distribution shape (see ray guide "Aggregation at scale"): vectorized
per-batch signature computation in ``map_batches`` → explode to
(bucket, key, id) rows → ``groupby`` bucket keys (only signatures shuffle,
never documents) → in-bucket candidate pairs → verification. Connected
components run as driver union-find over the *confirmed pair set* — orders
of magnitude smaller than the corpus; the 100 TB path swaps it for a few
rounds of min-label propagation via groupby without changing the operators
upstream.
"""

from __future__ import annotations

import hashlib
import functools
import itertools
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

from schema_guru_ray.stages.profile import stable_hash64

_MERSENNE = (1 << 61) - 1
_WS_RE = re.compile(r"\s+")


def _normalize(s: str) -> str:
    return _WS_RE.sub(" ", s).lower().strip()


def word_shingles(text: str, n: int = 3) -> List[str]:
    toks = _normalize(text).split(" ")
    if len(toks) < n:
        return [" ".join(toks)] if toks and toks[0] else []
    return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]


# odd multipliers make the rolling n-window token-hash combine
# position-sensitive (same constants as the repeated-passage detector);
# public: the decontamination stage hashes benchmark grams with the same
# combine so its corpus-side window hashes are probe-compatible
SHINGLE_COMBINE = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
     0x27D4EB2F165667C5, 0x85EBCA77C2B2AE63, 0x2545F4914F6CDD1D,
     0x100000001B3, 0xC6A4A7935BD1E995],
    dtype=np.uint64,
)


@functools.lru_cache(maxsize=8)
def shingle_combine(n: int) -> np.ndarray:
    """Position multipliers for an n-token window combine. The first 8 are
    the fixed public constants above (hash-stable with every existing
    oracle/test); larger windows (real deployments use 8-13-gram
    decontamination) extend deterministically with seeded odd constants —
    indexing SHINGLE_COMBINE directly capped n at 8 with an IndexError
    (round-4 review finding)."""
    if n <= len(SHINGLE_COMBINE):
        return SHINGLE_COMBINE[:n]
    rng = np.random.default_rng(0x51C0_11DE)
    extra = rng.integers(1 << 1, 1 << 63, size=n - len(SHINGLE_COMBINE),
                         dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    return np.concatenate([SHINGLE_COMBINE, extra])


def shingle_hash_batch(
    b: pd.DataFrame, column: str = "text", id_column: str = "doc_id", n: int = 3
) -> pa.Table:
    """Per-doc SORTED-DISTINCT uint64 shingle-hash sets, fully vectorized —
    each document is shingled exactly ONCE here, so downstream pair
    verification intersects int arrays instead of re-tokenizing text per
    pair (a degree-factor duplication in the hottest dedup stage).

    Set semantics match :func:`word_shingles` exactly: ``\\S+`` tokens of
    the lowercased text (identical to ``_normalize().split(" ")`` for
    non-empty docs), full n-windows hashed with the rolling combine; a doc
    shorter than ``n`` tokens contributes its single whole-doc shingle
    (hashed as the joined string — it has < n tokens so it can never need
    to equal an n-token window hash); an empty doc contributes nothing.
    Equal shingle strings always hash equal; distinct ones collide with
    probability ~m²/2⁶⁵ per doc — negligible, and collisions only MERGE
    set elements (the same trade the repeated-passage detector documents).

    Returns an Arrow table ``(id_column:int64, __sh:large_binary)`` — the
    sorted hash set packed as native-endian uint64 bytes (decode with
    ``np.frombuffer``). Binary, not ``list<uint64>``, because the native
    hash join rejects list-typed non-key fields; bytes pass through
    zero-copy.
    """
    from itertools import chain

    tok_lists = b[column].fillna("").str.lower().str.findall(r"\S+")
    lengths = tok_lists.map(len).to_numpy()
    flat = list(chain.from_iterable(tok_lists))
    ids = pa.array(b[id_column].to_numpy(np.int64), pa.int64())

    if flat:
        codes, uniq = pd.factorize(pd.Series(flat, dtype="object"))
        th = stable_hash64(pd.Series(uniq)).astype(np.uint64)[codes]
    else:
        th = np.zeros(0, np.uint64)
    doc_idx = np.repeat(np.arange(len(b)), lengths)

    n_win = len(flat) - n + 1
    _SC = shingle_combine(n)
    if n_win > 0:
        with np.errstate(over="ignore"):
            gh = np.zeros(n_win, np.uint64)
            for j in range(n):
                gh += th[j : j + n_win] * _SC[j]
        valid = doc_idx[:n_win] == doc_idx[n - 1 :]
        win_h, win_d = gh[valid], doc_idx[:n_win][valid]
    else:
        win_h = win_d = np.zeros(0, np.uint64)

    short = np.flatnonzero((lengths > 0) & (lengths < n))
    if len(short):
        joined = tok_lists.iloc[short].map(" ".join)
        short_h = stable_hash64(pd.Series(joined.to_numpy(), dtype="object"))
        all_h = np.concatenate([win_h.astype(np.uint64), short_h.astype(np.uint64)])
        all_d = np.concatenate([win_d.astype(np.int64), short.astype(np.int64)])
    else:
        all_h, all_d = win_h.astype(np.uint64), win_d.astype(np.int64)

    order = np.lexsort((all_h, all_d))
    hs, dxs = all_h[order], all_d[order]
    keep = np.ones(len(hs), bool)
    keep[1:] = (hs[1:] != hs[:-1]) | (dxs[1:] != dxs[:-1])
    hs, dxs = hs[keep], dxs[keep]
    counts = np.bincount(dxs, minlength=len(b))
    offsets = np.zeros(len(b) + 1, np.int64)
    np.cumsum(counts * 8, out=offsets[1:])
    blobs = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(),
        len(b),
        [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(hs.tobytes())],
    )
    return pa.table({id_column: ids, "__sh": blobs})


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    u = len(sa | sb)
    return len(sa & sb) / u if u else 0.0


# --- exact dedup ------------------------------------------------------------


class ExactDedupHasher:
    """map_batches kernel → (id, fp_md5) rows; groupby fp downstream."""

    def __init__(self, column: str = "text", id_column: str = "doc_id"):
        import hashlib

        self.column = column
        self.id_column = id_column
        self._md5 = hashlib.md5

    def __call__(self, batch: pd.DataFrame) -> pa.Table:
        fp = batch[self.column].fillna("").map(
            lambda s: self._md5(_normalize(s).encode()).hexdigest()
        )
        # Arrow block out: this is the family's biggest-volume shuffle
        # (one row per corpus doc) and Ray's sort shuffle on pandas
        # blocks is ~5x slower (round-4 bench root cause).
        return pa.table({self.id_column: pa.array(batch[self.id_column]),
                         "fp_md5": pa.array(fp, pa.string())})


def exact_dedup(ds, column: str = "text", id_column: str = "doc_id"):
    """Hash-partitioned exact dedup: one keeper (min id) per content hash.
    Returns rows (fp_md5, keeper_id, n_copies). Only (id, 16-byte hash)
    pairs shuffle. The reduce is :func:`joins.bucketed_aggregate`, NOT the
    native per-key aggregate — content hashes are a groups≈rows key, where
    Ray's aggregate pays per-group reduce overhead (round-5 measurement:
    226k groups cost 297 s native vs 0.2 s bucketed)."""
    from schema_guru_ray.stages.joins import bucketed_aggregate

    hashed = ds.map_batches(
        ExactDedupHasher(column, id_column), batch_format="pandas"
    )
    return bucketed_aggregate(
        hashed, "fp_md5",
        {"keeper_id": (id_column, "min"), "n_copies": (id_column, "size")},
        n_rows=ds.count(),
    )


# --- MinHash + LSH ----------------------------------------------------------


class MinHashSigner:
    """map_batches kernel → one row per (doc × band): (band, band_key, id,
    sig bytes). Signature: k universal-hash minima over word n-gram shingle
    hashes, banded b×r (Broder 1997; LSH banding per Mining of Massive
    Datasets ch.3). All shingles of a batch are hashed in ONE vectorized
    pass; per-doc minima via segmented reduction."""

    def __init__(
        self,
        column: str = "text",
        id_column: str = "doc_id",
        num_perm: int = 64,
        bands: int = 16,
        shingle_n: int = 3,
        seed: int = 7,
    ):
        assert num_perm % bands == 0
        self.column = column
        self.id_column = id_column
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.shingle_n = shingle_n
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)

    def signatures(self, texts: pd.Series) -> Tuple[np.ndarray, List[int]]:
        """(n_docs × num_perm) uint64 signature matrix. Per-doc minima via
        ``np.minimum.reduceat`` segment reduction — one small temp per
        permutation instead of an (n_shingles × num_perm) matrix, and no
        per-doc Python loop."""
        shingle_lists = [word_shingles(t or "", self.shingle_n) for t in texts]
        lengths = np.array([len(s) for s in shingle_lists], dtype=np.int64)
        flat = list(itertools.chain.from_iterable(shingle_lists))
        n_docs = len(shingle_lists)
        sigs = np.full((n_docs, self.num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
        if flat:
            h = stable_hash64(pd.Series(flat)) % np.uint64(_MERSENNE)
            nonempty = np.nonzero(lengths > 0)[0]
            starts = np.concatenate([[0], np.cumsum(lengths)])[:-1][nonempty]
            with np.errstate(over="ignore"):  # wrap-around is part of the hash
                for j in range(self.num_perm):
                    t = (h * self.a[j] + self.b[j]) % np.uint64(_MERSENNE)
                    sigs[nonempty, j] = np.minimum.reduceat(t, starts)
        return sigs, list(lengths)

    def band_keys(self, sigs: np.ndarray) -> np.ndarray:
        """(n_docs × bands) uint64 band keys (mult-xor fold of each band)."""
        n = sigs.shape[0]
        keys = np.zeros((n, self.bands), dtype=np.uint64)
        mult = np.uint64(0x9E3779B97F4A7C15)
        with np.errstate(over="ignore"):  # mod-2^64 fold
            for b in range(self.bands):
                chunk = sigs[:, b * self.rows_per_band : (b + 1) * self.rows_per_band]
                acc = np.full(n, np.uint64(b + 1), dtype=np.uint64)
                for r in range(self.rows_per_band):
                    acc = (acc ^ chunk[:, r]) * mult
                keys[:, b] = acc
        return keys

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch[self.id_column].to_numpy()
        sigs, lengths = self.signatures(batch[self.column])
        keys = self.band_keys(sigs)
        sig_bytes = [s.tobytes() for s in sigs]
        n = len(ids)
        out = {
            "band": np.repeat(np.arange(self.bands, dtype=np.int32), n),
            "band_key": keys.T.reshape(-1),
            "doc_id": np.tile(ids, self.bands),
            "sig": [sig_bytes[i] for _ in range(self.bands) for i in range(n)],
        }
        return pd.DataFrame(out)


def minhash_candidate_pairs(ds, signer: MinHashSigner, min_est_jaccard: float = 0.5):
    """Dataset → candidate near-dup pairs with signature-estimated Jaccard.
    Returns rows (id_a, id_b, est_jaccard), deduped across bands.

    Shuffle shape: the exploded (band, band_key) rows go through one
    :func:`stages.joins.bucketed` shuffle on ``band_key``, and each bucket
    runs a vectorized pandas groupby over its real keys, generating pairs
    only for keys with >= 2 docs (rare, by LSH design). This avoids
    per-collision-group Python dispatch, which dominates wall time with
    millions of tiny groups. Final pair dedup across bands is a vectorized
    Max aggregate. Both shuffles are sized from ``bands × ds.count()``
    (the exploded row count; free on a read or materialized input)."""
    from schema_guru_ray.stages.joins import bucketed, bucketed_aggregate

    n_rows = signer.bands * ds.count()
    exploded = ds.map_batches(signer, batch_format="pandas")
    num_perm = signer.num_perm

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        # prefilter to real collision groups VECTORIZED before the Python
        # group loop — pandas groupby iteration visits every group, so
        # without this the loop is O(#distinct keys in the bucket), not
        # O(#collisions) (LSH keys are mostly unique by design)
        g = g.drop_duplicates(["band", "band_key", "doc_id"])
        g = g[g.duplicated(["band", "band_key"], keep=False)]
        for _, grp in g.groupby(["band", "band_key"], sort=False):
            uniq = grp
            ids = uniq["doc_id"].to_numpy()
            sigs = np.stack([np.frombuffer(s, dtype=np.uint64) for s in uniq["sig"]])
            for i, j in itertools.combinations(range(len(ids)), 2):
                est = float((sigs[i] == sigs[j]).sum()) / num_perm
                if est >= min_est_jaccard:
                    a, b = int(ids[i]), int(ids[j])
                    if a > b:
                        a, b = b, a
                    rows.append((a, b, est))
        df = pd.DataFrame(rows, columns=["id_a", "id_b", "est_jaccard"]).astype(
            {"id_a": "int64", "id_b": "int64", "est_jaccard": "float64"}
        )
        return pa.Table.from_pandas(df, preserve_index=False)  # Arrow into the pair shuffle

    pairs = bucketed(exploded, "band_key", bucket_pairs, n_rows=n_rows)
    # pair keys are near-unique → bucketed vectorized max, NOT the native
    # per-group aggregate (groups≈rows trap, see bucketed_aggregate)
    return bucketed_aggregate(
        pairs, ["id_a", "id_b"], {"est_jaccard": ("est_jaccard", "max")},
        n_rows=n_rows,
    )


def connected_components_distributed(pairs_ds, max_rounds: Optional[int] = None):
    """Scale-path connected components over a PAIRS Dataset: iterative
    min-label propagation via groupby, ACCELERATED with pointer jumping —
    each round every node adopts the minimum of (its label, its neighbors'
    labels, its label's OWN label). The label-of-label shortcut halves the
    remaining distance to the component minimum each round, so convergence
    is O(log diameter) rounds, not O(diameter) (hash-to-min, cf. Rastogi
    et al. 2013 "Finding Connected Components in Map-Reduce"). Labels only
    ever decrease, so the sum-fixpoint test is a termination proof — the
    loop runs TO CONVERGENCE by default. ``max_rounds`` is an explicit
    safety bound; hitting it without convergence RAISES rather than
    silently returning wrong labels (no silent caps).

    Use when the candidate-pair set itself is too big for the driver;
    :func:`connected_components` (union-find) is the small-case default.

    Every per-node reduction goes through :func:`bucketed_aggregate`, NOT
    Ray's native ``groupby(node).aggregate(Min)`` — labels are a
    groups≈rows key, where the native aggregate's per-group reduce cost
    dominated the whole loop (round-5 measurement at 200k pairs / 226k
    nodes: one round 300 s native-on-pandas-blocks, 16.5 s native-on-
    Arrow, ~1 s bucketed)."""
    import pandas as pd

    # initial labels: node → min(node, all direct neighbors)
    def edges_both(b: pd.DataFrame) -> pa.Table:
        out = pd.DataFrame(
            {
                "node": pd.concat([b["id_a"], b["id_b"]], ignore_index=True),
                "peer": pd.concat([b["id_b"], b["id_a"]], ignore_index=True),
            }
        )
        return pa.Table.from_pandas(out, preserve_index=False)  # Arrow into shuffles

    edges = pairs_ds.map_batches(edges_both, batch_format="pandas").materialize()

    from schema_guru_ray.stages.joins import bucketed_aggregate, bucketed_hash_join

    # data-scaled bucket count for the in-loop joins (round-2 verdict: the
    # fixed 8 here meant 1/8 of the edge set materialized per pandas group
    # at ANY scale); edges is materialized, so count() is free
    n_edges = edges.count()

    def self_min(b: pd.DataFrame) -> pa.Table:
        b = b.assign(label=b[["node", "label"]].min(axis=1))
        return pa.Table.from_pandas(b, preserve_index=False)

    labels = bucketed_aggregate(
        edges, "node", {"label": ("peer", "min")}, n_rows=n_edges
    ).map_batches(self_min, batch_format="pandas").materialize()

    def label_sum(lab) -> int:
        # one native Sum aggregate over the (materialized) labels blocks —
        # not a separate map_batches + driver-pandas pass per round
        return int(lab.sum("label") or 0)

    def _pa_cols(**spec):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({out: t[src] for out, src in spec.items()})

        return fn

    # explicit schema hints for the in-loop joins: ds.schema() on the lazy
    # map plans costs a limit-1 probe execution PER ROUND per side — dozens
    # of driver round-trips over the loop's lifetime for types we know
    i64 = pa.int64()
    sch_edges = pa.schema([("node", i64), ("peer", i64)])
    sch_labels = pa.schema([("node", i64), ("label", i64)])
    sch_as_mid = pa.schema([("node", i64), ("mid", i64)])
    sch_mid_labels = pa.schema([("mid", i64), ("jump", i64)])

    prev_sum = label_sum(labels)
    rounds = 0
    converged = False
    while max_rounds is None or rounds < max_rounds:
        rounds += 1
        # (a) propagate: node's label → its peers
        joined = bucketed_hash_join(
            edges, labels, on="node", n_rows=n_edges,
            left_schema=sch_edges, right_schema=sch_labels,
        )
        prop = joined.map_batches(
            _pa_cols(node="peer", label="label"), batch_format="pyarrow"
        )
        # (b) pointer jump: node's label → its label's label
        as_mid = labels.map_batches(
            _pa_cols(node="node", mid="label"), batch_format="pyarrow"
        )
        mid_labels = labels.map_batches(
            _pa_cols(mid="node", jump="label"), batch_format="pyarrow"
        )
        jumped = bucketed_hash_join(
            as_mid, mid_labels, on="mid", n_rows=n_edges,
            left_schema=sch_as_mid, right_schema=sch_mid_labels,
        )
        jump = jumped.map_batches(
            _pa_cols(node="node", label="jump"), batch_format="pyarrow"
        )
        both = labels.union(prop).union(jump)
        # repartition: the union+groupby otherwise ~doubles the block count
        # every round (3→9→21→45…), and scheduling overhead compounds
        # geometrically — bound it to the edge partitioning
        labels = (
            bucketed_aggregate(
                both, "node", {"label": ("label", "min")}, n_rows=n_edges
            )
            .repartition(max(8, edges.num_blocks()))
            .materialize()
        )
        # labels only ever decrease: unchanged sum ⇒ fixed point
        cur = label_sum(labels)
        if cur == prev_sum:
            converged = True
            break
        prev_sum = cur
    if not converged:
        raise RuntimeError(
            f"connected_components_distributed did not converge within "
            f"max_rounds={max_rounds}; raise the bound or leave it unbounded"
        )
    return labels


# Regime crossover for connected components, measured on this host
# (jobs/components_crossover.py, round 5, 16 cpus, mixed random-graph +
# 1024-chain pair sets):
#
#   pairs     driver union-find   distributed loop
#   20k       0.06 s              38 s
#   200k      0.41 s              91 s
#   1M        2.28 s              313 s
#
# Driver union-find beats the distributed pointer-jumping loop at EVERY
# size its memory allows — the loop pays ~2 bucketed joins + a bucketed
# reduce per round of fixed Ray overhead, while pulling P pair rows and
# union-finding them costs ~2 s per million pairs. The limit is therefore
# a MEMORY bound, not a speed crossover: 5M pairs ≈ 80 MB of driver pandas
# + a dict of ~2×nodes — comfortably inside a driver heap; past it, labels
# must stay distributed.
DRIVER_PAIR_LIMIT = 5_000_000


def connected_components_auto(pairs_ds):
    """Connected components over a PAIRS Dataset with the measured regime
    choice: when the pair set fits ``DRIVER_PAIR_LIMIT`` (read per call),
    pull it once and run union-find (path-halving, min-root — same labels
    as the distributed fixpoint); otherwise run the O(log diameter)
    distributed propagation. Returns a Dataset of (node:int64,
    label:int64) in both regimes. The input is materialized (both regimes
    consume it fully anyway), so the sizing ``count()`` is free."""
    import ray.data as rd

    pairs_ds = pairs_ds.materialize()
    n_pairs = pairs_ds.count()
    if n_pairs > DRIVER_PAIR_LIMIT:
        return connected_components_distributed(pairs_ds)
    df = pairs_ds.to_pandas()
    if df.empty:
        return rd.from_pandas(
            pd.DataFrame({"node": pd.Series(dtype="int64"),
                          "label": pd.Series(dtype="int64")})
        )
    roots = connected_components(
        zip(df["id_a"].astype("int64"), df["id_b"].astype("int64"))
    )
    out = pd.DataFrame(
        {"node": list(roots.keys()), "label": list(roots.values())}
    ).astype({"node": "int64", "label": "int64"}).sort_values("node")
    return rd.from_pandas(out.reset_index(drop=True))


def connected_components(pairs: Iterable[Tuple[int, int]]) -> Dict[int, int]:
    """Union-find over confirmed duplicate pairs → {id: cluster_root}.
    Driver-side by design: the confirmed-pair set is tiny relative to the
    corpus. Scale path: iterative min-label propagation via groupby."""
    parent: Dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


# --- SimHash ----------------------------------------------------------------


def _md5_token_hash64(tokens: pd.Series) -> np.ndarray:
    """uint64 token hash = big-endian first 8 bytes of md5(utf-8 token) —
    chosen over siphash so a SQL oracle can reproduce the signature
    bit-for-bit (`CAST('0x' || substr(md5(tok),1,16) AS UBIGINT)` in
    DuckDB). md5 runs once per UNIQUE token per batch."""
    uniq = pd.unique(tokens)
    table = {
        t: np.uint64(int(hashlib.md5(t.encode("utf-8")).hexdigest()[:16], 16))
        for t in uniq
    }
    return tokens.map(table).to_numpy(dtype=np.uint64)


class SimHasher:
    """map_batches kernel → (id, simhash, chunk0..chunk3) rows.
    64-bit SimHash (Charikar 2002): sign of per-bit sums of token-hash ±1
    contributions (bit b of the signature is set iff the sum of
    ``(hash >> b) & 1 ? +1 : -1`` over all token occurrences is positive);
    candidates must share at least one 16-bit chunk (pigeonhole for
    hamming distance <= 3). The md5 token hash makes the whole signature
    SQL-expressible — simhash_documents carries a full DuckDB oracle."""

    _BITS = np.arange(64, dtype=np.uint64)

    def __init__(self, column: str = "text", id_column: str = "doc_id"):
        self.column = column
        self.id_column = id_column

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[self.column].fillna("")
        token_lists = [_normalize(t).split(" ") for t in texts]
        lengths = [len(t) for t in token_lists]
        flat = list(itertools.chain.from_iterable(token_lists))
        n = len(token_lists)
        sims = np.zeros(n, dtype=np.uint64)
        if flat:
            h = _md5_token_hash64(pd.Series(flat))
            bits = ((h[:, None] >> self._BITS[None, :]) & np.uint64(1)).astype(np.int32)
            contrib = bits * 2 - 1  # (n_tokens × 64) of ±1
            offsets = np.concatenate([[0], np.cumsum(lengths)])
            for d in range(n):
                if lengths[d]:
                    s = contrib[offsets[d] : offsets[d + 1]].sum(axis=0)
                    # distinct bits per term: the sum IS the bitwise OR
                    sims[d] = ((s > 0).astype(np.uint64) << self._BITS).sum(
                        dtype=np.uint64
                    )
        out = {self.id_column: batch[self.id_column], "simhash": sims}
        for c in range(4):
            out[f"chunk{c}"] = ((sims >> np.uint64(16 * c)) & np.uint64(0xFFFF)).astype(
                np.int32
            )
        return pd.DataFrame(out)


def hamming_pairs_from_chunked_hashes(hashed, id_column: str = "doc_id",
                                      hash_column: str = "simhash",
                                      max_hamming: int = 3):
    """Generic 64-bit-hash near-dup pairing by 16-bit-chunk pigeonhole:
    ``hashed`` carries (id, <hash_column> uint64, chunk0..chunk3) rows; any
    pair at hamming distance ≤ 3 must agree on at least one chunk, so
    bucketing on each chunk and verifying popcount in-bucket is EXACT for
    ``max_hamming ≤ 3`` (and a recall-documented heuristic above). Shared
    by text SimHash and image perceptual-hash dedup. ``hashed`` is
    materialized here (small rows), which keeps the hashing map out of the
    shuffle's plan and gives the row count that sizes the buckets. Returns
    (id_a, id_b, hamming)."""
    import pandas as pd

    from schema_guru_ray.stages.joins import bucketed, bucketed_aggregate

    hashed = hashed.materialize()
    n_rows = 4 * hashed.count()  # one exploded row per 16-bit chunk

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for c in range(4):
            frames.append(
                pd.DataFrame(
                    {
                        "chunk_idx": c,
                        "chunk_val": b[f"chunk{c}"],
                        id_column: b[id_column],
                        "__h": b[hash_column],
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    exploded = hashed.map_batches(explode, batch_format="pandas")

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        # vectorized collision prefilter (see minhash bucket_pairs): the
        # Python loop must touch only keys with >= 2 distinct ids
        g = g.drop_duplicates(["chunk_idx", "chunk_val", id_column])
        g = g[g.duplicated(["chunk_idx", "chunk_val"], keep=False)]
        for _, grp in g.groupby(["chunk_idx", "chunk_val"], sort=False):
            uniq = grp
            ids = uniq[id_column].to_numpy()
            hs = uniq["__h"].to_numpy(dtype=np.uint64)
            for i, j in itertools.combinations(range(len(ids)), 2):
                d = int(bin(int(hs[i]) ^ int(hs[j])).count("1"))
                if d <= max_hamming:
                    a, b_ = int(ids[i]), int(ids[j])
                    if a > b_:
                        a, b_ = b_, a
                    rows.append((a, b_, d))
        df = pd.DataFrame(rows, columns=["id_a", "id_b", "hamming"]).astype(
            {"id_a": "int64", "id_b": "int64", "hamming": "int64"}
        )
        return pa.Table.from_pandas(df, preserve_index=False)  # Arrow into the pair shuffle

    pairs = bucketed(exploded, "chunk_val", bucket_fn, n_rows=n_rows)
    # near-unique pair keys → bucketed vectorized min (groups≈rows trap)
    return bucketed_aggregate(
        pairs, ["id_a", "id_b"], {"hamming": ("hamming", "min")}, n_rows=n_rows
    )


def simhash_pairs(ds, max_hamming: int = 3, column: str = "text", id_column: str = "doc_id"):
    """Near-dup pairs by SimHash: bucket on each 16-bit chunk, verify hamming
    distance in-bucket. Returns (id_a, id_b, hamming)."""
    hashed = ds.map_batches(SimHasher(column, id_column), batch_format="pandas")
    return hamming_pairs_from_chunked_hashes(
        hashed, id_column=id_column, hash_column="simhash", max_hamming=max_hamming
    )


# --- n-gram Jaccard verification -------------------------------------------


def verify_pairs_jaccard_distributed(
    pairs_ds,
    docs_ds,
    column: str = "text",
    id_column: str = "doc_id",
    shingle_n: int = 3,
    threshold: float = 0.8,
):
    """EXACT n-gram Jaccard verification of candidate pairs, end-to-end
    distributed (the scale path promised by :func:`verify_pairs_jaccard`):

    1. explode each candidate pair to two (doc_id, id_a, id_b) rows;
    2. PRUNE the documents side to candidate ids BEFORE the join — one
       :func:`stages.joins.join_keyed` semi join against the candidate id
       set. Without this prune the join would shuffle the ENTIRE corpus
       text to co-locate it with a handful of pairs;
    3. shingle-hash each surviving doc ONCE (:func:`shingle_hash_batch` —
       sorted-distinct uint64 sets) and :func:`stages.joins.
       bucketed_hash_join` the packed sets against the exploded pairs —
       text never enters the exchange. (Ray's native join starts one
       aggregator actor per partition and stalls once a row-derived
       partition count outgrows the cluster.)
    4. one :func:`stages.joins.bucketed` shuffle on the pair; inside a
       bucket a pandas groupby walks real pairs and intersects the two
       sorted hash arrays (integer intersection/union — no per-pair
       re-tokenizing).

    ``pairs_ds`` is materialized here (2-int rows) so the id collection
    and bucket sizing never re-run the candidate plan.

    Returns rows (id_a, id_b, n_inter, n_union) for pairs with
    jaccard >= threshold, decided by integer cross-multiplication
    (``n_inter * q >= n_union * p`` for threshold p/q) — no float
    comparisons, so the result hash-matches a SQL oracle exactly."""
    from fractions import Fraction

    from schema_guru_ray.stages.joins import (
        bucketed, bucketed_hash_join, join_keyed,
    )

    frac = Fraction(threshold).limit_denominator(1000)
    p_num, p_den = frac.numerator, frac.denominator

    pairs_ds = pairs_ds.materialize()

    def explode(b: pd.DataFrame) -> pa.Table:
        df = pd.DataFrame(
            {
                id_column: pd.concat([b["id_a"], b["id_b"]], ignore_index=True).astype("int64"),
                "id_a": pd.concat([b["id_a"], b["id_a"]], ignore_index=True).astype("int64"),
                "id_b": pd.concat([b["id_b"], b["id_b"]], ignore_index=True).astype("int64"),
            }
        )
        # metadata-free Arrow: Ray hashes block schemas, and the pandas
        # schema metadata (a dict) always fails that hash
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    sides = pairs_ds.map_batches(explode, batch_format="pandas")
    docs_clean = docs_ds.select_columns([id_column, column]).map_batches(
        lambda t: t.replace_schema_metadata(None), batch_format="pyarrow"
    )

    n_pairs = pairs_ds.count()  # free: materialized
    if n_pairs == 0:
        # no candidates → no pairs; an empty Dataset of the output schema
        # (the prune/join below would choke on the column-less empty frame;
        # from_arrow keeps the typed schema where from_pandas drops it)
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {c: pa.array([], pa.int64())
                 for c in ("id_a", "id_b", "n_inter", "n_union")}
            )
        )
    cand_ids = pairs_ds.map_batches(
        lambda b: pd.DataFrame(
            {id_column: pd.concat([b["id_a"], b["id_b"]]).unique()}
        ),
        batch_format="pandas",
    ).materialize()
    docs_clean = join_keyed(docs_clean, cand_ids, on=id_column, how="semi")
    # shingle each surviving doc ONCE (sorted-distinct uint64 hash set);
    # the join then ships int lists, never text, and verification is an
    # integer-array intersection per pair
    docs_sh = docs_clean.map_batches(
        lambda b: shingle_hash_batch(b, column=column, id_column=id_column, n=shingle_n),
        batch_format="pandas",
    )
    i64 = pa.int64()
    joined = bucketed_hash_join(
        sides, docs_sh, on=id_column,
        n_rows=2 * n_pairs + cand_ids.count(),
        left_schema=pa.schema([(id_column, i64), ("id_a", i64), ("id_b", i64)]),
        right_schema=pa.schema([(id_column, i64), ("__sh", pa.large_binary())]),
    )

    def verify_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for (ia, ib), grp in g.groupby(["id_a", "id_b"], sort=False):
            sets = dict(zip(grp[id_column], grp["__sh"]))
            if len(sets) < 2:
                continue  # one side's doc missing (shouldn't happen)
            sa = np.frombuffer(sets[ia] or b"", np.uint64)  # sorted distinct
            sb = np.frombuffer(sets[ib] or b"", np.uint64)
            n_inter = int(np.isin(sa, sb, assume_unique=True).sum())
            n_union = len(sa) + len(sb) - n_inter
            if n_union and n_inter * p_den >= n_union * p_num:
                rows.append((int(ia), int(ib), n_inter, n_union))
        return pd.DataFrame(
            rows, columns=["id_a", "id_b", "n_inter", "n_union"]
        ).astype({"id_a": "int64", "id_b": "int64", "n_inter": "int64", "n_union": "int64"})

    return bucketed(joined, ["id_a", "id_b"], verify_bucket, n_rows=2 * n_pairs)


def verify_pairs_jaccard(
    pairs_df: pd.DataFrame,
    texts_by_id: Dict[int, str],
    shingle_n: int = 3,
    threshold: float = 0.8,
) -> pd.DataFrame:
    """Exact n-gram Jaccard for candidate pairs (driver-side over a
    broadcast id→text map; at scale this runs inside map_groups with texts
    carried into the bucket). Adds ``exact_jaccard`` and filters."""
    rows = []
    for a, b in zip(pairs_df["id_a"], pairs_df["id_b"]):
        ja = jaccard(
            word_shingles(texts_by_id.get(int(a), ""), shingle_n),
            word_shingles(texts_by_id.get(int(b), ""), shingle_n),
        )
        rows.append(ja)
    out = pairs_df.copy()
    out["exact_jaccard"] = rows
    return out[out["exact_jaccard"] >= threshold].reset_index(drop=True)


# --- embedding cosine near-dup ---------------------------------------------


class HyperplaneLSH:
    """map_batches kernel → (table, bucket, id, unit-vector bytes) rows using
    random-hyperplane signatures (Charikar 2002) for cosine buckets.

    ``n_tables`` independent plane sets (multi-table LSH): a single table's
    recall for cosine c is (1 - acos(c)/π)^n_bits — e.g. ≈0.43 at c=0.95
    with 8 bits. With T tables a true pair is missed only if EVERY table
    splits it: miss = (1-p)^T, so T=16 × 6 bits gives recall ≈ 1-6e-6 at
    c=0.95. One exploded row per (vector × table) shuffles; vectors
    themselves never pairwise-compare outside shared buckets."""

    def __init__(self, dim: int, n_bits: int = 12, column: str = "embedding",
                 id_column: str = "vec_id", seed: int = 11, n_tables: int = 1):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((n_tables, dim, n_bits))
        self.n_tables = n_tables
        self.n_bits = n_bits
        self.column = column
        self.id_column = id_column

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        from schema_guru_ray.stages.cluster import drop_null_vectors

        batch = drop_null_vectors(batch, self.column)
        if batch.empty:
            return pd.DataFrame({
                "table": pd.Series(dtype="int32"),
                "bucket": pd.Series(dtype="int64"),
                self.id_column: pd.Series(dtype="int64"),
                "unit": pd.Series(dtype="object"),
            })
        vecs = np.stack(batch[self.column].to_numpy()).astype(np.float64)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        unit = vecs / np.clip(norms, 1e-12, None)
        n = len(vecs)
        unit_bytes = [u.astype(np.float32).tobytes() for u in unit]
        ids = batch[self.id_column].to_numpy()
        frames = []
        weights = (np.int64(1) << np.arange(self.n_bits, dtype=np.int64))
        for t in range(self.n_tables):
            bits = (unit @ self.planes[t]) > 0
            keys = bits.astype(np.int64) @ weights
            frames.append(
                pd.DataFrame(
                    {
                        "table": np.full(n, t, dtype=np.int32),
                        "bucket": keys,
                        self.id_column: ids,
                        "unit": unit_bytes,
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)


def embedding_near_dup_pairs(ds, dim: int, threshold: float = 0.95,
                             n_bits: int = 12, column: str = "embedding",
                             id_column: str = "vec_id", n_tables: int = 1):
    """Cosine near-dup pairs via hyperplane-LSH buckets + in-bucket exact
    cosine. Returns (id_a, id_b, cosine).

    Recall: tune with ``n_tables`` (multi-table LSH, see HyperplaneLSH) —
    n_tables=16 with n_bits=6 is effectively exhaustive at cosine ≥0.95.
    Shuffle shape mirrors MinHash: exploded rows go through one
    :func:`stages.joins.bucketed` shuffle on (table, bucket), in-bucket
    work is a vectorized pandas groupby over those real keys, and the
    cross-table pair dedup is a vectorized max — no per-pair Python
    dispatch. Both shuffles are sized from ``n_tables × ds.count()``."""
    from schema_guru_ray.stages.joins import bucketed, bucketed_aggregate

    n_rows = n_tables * ds.count()
    hashed = ds.map_batches(
        HyperplaneLSH(dim, n_bits, column, id_column, n_tables=n_tables),
        batch_format="pandas",
    )

    def coarse_pairs(g: pd.DataFrame) -> pd.DataFrame:
        frames = []
        # vectorized collision prefilter: only (table, bucket) keys holding
        # >= 2 rows reach the Python loop (keys are mostly singletons)
        g = g[g.duplicated(["table", "bucket"], keep=False)]
        for _, grp in g.groupby(["table", "bucket"], sort=False):
            n = len(grp)
            # NO id dedup here: two ROWS with the same id are a legitimate
            # duplicate pair (e.g. audio content dedup keys vec_id off
            # clip_id, and duplicated clip_ids are exactly the signal)
            ids = grp[id_column].to_numpy()
            vecs = np.stack([np.frombuffer(u, dtype=np.float32) for u in grp["unit"]])
            # chunked upper-triangle scan: a SKEWED bucket (thousands of
            # near-identical vectors — e.g. synthetic audio features) must
            # not materialize the full n×n matrix or triu index arrays
            # (O(n²) memory: 30k rows → ~11 GB). Each chunk is a
            # (≤chunk × n) matmul + threshold; only passing pairs survive.
            chunk = int(max(64, min(1024, 64_000_000 // max(n, 1))))
            for s in range(0, n - 1, chunk):
                e = min(s + chunk, n)
                sims = vecs[s:e] @ vecs.T  # (e-s, n) float32
                li, j = np.nonzero(sims >= threshold)
                i = li + s
                keep = j > i
                if keep.any():
                    i, j = i[keep], j[keep]
                    frames.append(
                        pd.DataFrame(
                            {
                                "id_a": np.minimum(ids[i], ids[j]),
                                "id_b": np.maximum(ids[i], ids[j]),
                                "cosine": sims[li[keep], j].astype(np.float64),
                            }
                        )
                    )
        if not frames:
            return pa.table(
                {
                    "id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        out = pd.concat(frames, ignore_index=True)
        out = out.astype({"id_a": "int64", "id_b": "int64"})
        return pa.Table.from_pandas(out, preserve_index=False)  # Arrow into the pair shuffle

    pairs = bucketed(hashed, ["table", "bucket"], coarse_pairs, n_rows=n_rows)
    # near-unique pair keys → bucketed vectorized max (groups≈rows trap)
    return bucketed_aggregate(
        pairs, ["id_a", "id_b"], {"cosine": ("cosine", "max")}, n_rows=n_rows
    )
