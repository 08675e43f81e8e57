"""Persistent baseline sketch store for distribution-drift scoring.

The drift check (``codec_verdicts(..., baseline=...)``) compares the
current run's per-codec KLL sketches against a BASELINE store — sketches
from a reference run, typically days or corpora apart. That only works if
the store survives the process, so this module gives it a durable,
versioned on-disk form:

* one JSON file, atomic write (tmp + ``os.replace``) like
  ``state/checkpoint.py``'s ``_SUCCESS`` manifests;
* sketch bytes base64-encoded per (codec, column) — a store is KBs per
  codec (KLL k=800 ≈ 15 KB), so a single small file per corpus is the
  right shape even at 10^12-clip scale: the store describes codecs, not
  rows, and is broadcast (``ray.put``) to validators at use time;
* lineage metadata (source corpus, row counts, the sketch-relevant config
  hash) so a load can REJECT a store built under different sketch
  parameters — comparing a k=200 KLL baseline against k=800 current
  sketches silently degrades PSI/KS resolution, the same stale-input
  hazard the checkpoint runner guards with its config hash.

No reference analogue (schema-guru has no drift checks); this is part of
the beyond-reference validation suite (north star: "PSI/KS
distribution-drift scores against a baseline sketch store").
"""

from __future__ import annotations

import base64
import json
import os
from typing import Dict, Optional, Tuple

STORE_VERSION = 1

Store = Dict[str, Dict[str, bytes]]

# the NULL codec's key wherever codecs must be totally ordered strings: the
# per-codec fold and the persisted store, whose sorted JSON keys cannot mix
# None with str. The \x00 prefix cannot collide with a real codec label.
NULL_CODEC = "\x00<null>"


def decode_codecs(store: Store) -> Store:
    """The store with the null codec keyed as None again."""
    return {None if c == NULL_CODEC else c: cols for c, cols in store.items()}


def sketch_cfg_hash(cfg) -> str:
    """Hash of ONLY the parameters that shape the sketches, so unrelated
    config changes (thresholds, batch sizes) don't invalidate a store."""
    from schema_guru_ray.state.checkpoint import config_hash

    return config_hash({"hll_p": cfg.hll_p, "kll_k": cfg.kll_k})


def save_baseline(store: Store, path: str, *, source: str = "",
                  cfg_hash: str = "", meta: Optional[dict] = None) -> dict:
    """Atomically write the store + lineage metadata. Returns the manifest
    as written."""
    manifest = {
        "version": STORE_VERSION,
        "cfg_hash": cfg_hash,
        "source": source,
        "n_codecs": len(store),
        "meta": meta or {},
        "sketches": {
            NULL_CODEC if codec is None else codec: {
                col: base64.b64encode(raw).decode("ascii")
                for col, raw in cols.items()
            }
            for codec, cols in store.items()
        },
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, sort_keys=True)
    os.replace(tmp, path)
    return manifest


def merge_stores(stores) -> Store:
    """Merge per-partition stores into one corpus store by KLL-merging
    each (codec, column) sketch. This is the O(#partitions) path for
    rebuilding a corpus baseline from per-partition checkpoint sketches —
    at 10^12 rows, re-aggregating verdict ROWS for a baseline refresh is
    corpus-scale work every night, while merging partition BLOBS is KBs
    per partition regardless of row count. The null codec comes out
    keyed as None."""
    from schema_guru_ray.sketches.kll import KLL

    acc: Dict[str, Dict[str, KLL]] = {}
    for store in stores:
        for codec, cols in decode_codecs(store).items():
            slot = acc.setdefault(codec, {})
            for col, raw in cols.items():
                k = KLL.from_bytes(raw)
                slot[col] = slot[col].merge(k) if col in slot else k
    return {
        codec: {col: k.to_bytes() for col, k in cols.items()}
        for codec, cols in acc.items()
    }


def load_baseline(path: str, *, expect_cfg_hash: Optional[str] = None
                  ) -> Tuple[Store, dict]:
    """Load a store, with the null codec keyed as None; raises ValueError
    on version mismatch or (when ``expect_cfg_hash`` is given) on
    sketch-parameter mismatch."""
    with open(path) as f:
        manifest = json.load(f)
    if manifest.get("version") != STORE_VERSION:
        raise ValueError(
            f"baseline store version {manifest.get('version')!r} != {STORE_VERSION}"
        )
    if expect_cfg_hash is not None and manifest.get("cfg_hash") != expect_cfg_hash:
        raise ValueError(
            "baseline store was built under different sketch parameters "
            f"(store cfg_hash={manifest.get('cfg_hash')!r}, "
            f"current={expect_cfg_hash!r}); rebuild the baseline or pass "
            "matching hll_p/kll_k"
        )
    store: Store = decode_codecs({
        codec: {col: base64.b64decode(b64) for col, b64 in cols.items()}
        for codec, cols in manifest["sketches"].items()
    })
    meta = {k: v for k, v in manifest.items() if k != "sketches"}
    return store, meta
