"""Seeded generator for the ``infer_json`` workload's event corpus.

Every document is a pure function of ``(seed, index)``. The corpus mixes the
shapes the schema engine branches on: nested objects, arrays of objects,
uuid / ipv4 / date-time / email / uri strings, an enum below the cardinality
cap (``tier``) and one above it (``country``), integer/number mixes, nulls,
and a known number of lines that fail to derive (broken JSON or a top-level
scalar). A perturbed copy carries exactly one schema violation in each of a
known set of documents, so validation output can be checked exactly.
"""

from __future__ import annotations

import json
import random
import uuid
from dataclasses import dataclass, field
from typing import List, Set

import pyarrow as pa

# enum cap handed to the schema context: ``tier`` (3 values) keeps its enum,
# ``country`` (40 values) is tombstoned past it
ENUM_CARDINALITY = 10
EVENT_TYPES = ("page_view", "search", "add_to_cart", "checkout", "signup", "refund")
TIERS = ("free", "gold", "team")  # equal lengths: a 4-letter non-member breaks only the enum
COUNTRIES = tuple(f"{a}{b}" for a in "ABCDEFGH" for b in "XYZVW")
DOMAINS = ("example.com", "mail.test", "corp.example")
BROKEN_EVERY = 997  # one document in ~1000 fails to derive
PERTURB_EVERY = 53  # one document in ~50 gets a single violation in the copy

TYPED_COLUMNS = ("id", "event", "user_id", "amount", "ok", "ts")


@dataclass
class EventCorpus:
    table: pa.Table  # id, doc (JSON text), event, user_id, amount, ok, ts
    perturbed: pa.Table  # id, doc — the same rows with single-violation edits
    bad_ids: Set[int] = field(default_factory=set)  # rows that fail to derive
    perturbed_ids: Set[int] = field(default_factory=set)
    event_types: Set[str] = field(default_factory=set)


def _doc(rng: random.Random, i: int) -> dict:
    n_items = rng.randrange(0, 4)
    amount = rng.choice((None, rng.randrange(0, 5000), round(rng.uniform(0, 5000), 2)))
    return {
        "event_id": str(uuid.UUID(int=rng.getrandbits(128), version=4)),
        "event": EVENT_TYPES[min(int(rng.expovariate(0.6)), len(EVENT_TYPES) - 1)],
        "ts": "2026-%02d-%02dT%02d:%02d:%02dZ" % (
            rng.randrange(1, 13), rng.randrange(1, 29), rng.randrange(24),
            rng.randrange(60), rng.randrange(60)),
        "ip": ".".join(str(rng.randrange(1, 255)) for _ in range(4)),
        "user": {
            "id": rng.randrange(1, 10**6),
            "email": f"u{rng.randrange(10**5)}@{rng.choice(DOMAINS)}",
            "tier": rng.choice(TIERS),
            "country": rng.choice(COUNTRIES),
        },
        "items": [
            {"sku": f"SKU-{rng.randrange(10**4):04d}",
             "qty": rng.randrange(1, 9),
             "price": rng.choice((rng.randrange(1, 500), round(rng.uniform(1, 500), 2)))}
            for _ in range(n_items)
        ],
        "amount": amount,
        "tags": [rng.choice(("new", "promo", "mobile", "web", "beta"))
                 for _ in range(rng.randrange(0, 3))],
        "ref": rng.choice((None, f"https://shop.example/p/{i}")),
    }


def _perturb(doc: dict, kind: int) -> dict:
    """One edit that the inferred schema rejects with exactly one violation."""
    doc = json.loads(json.dumps(doc))
    if kind == 0:
        doc["zz_extra"] = 1  # additionalProperties: false
    elif kind == 1:
        doc["user"]["id"] = "x"  # string where only integers were seen
    else:
        doc["user"]["tier"] = "zzzz"  # right length, outside the kept enum
    return doc


def make_events(n: int, seed: int) -> EventCorpus:
    rng = random.Random(f"events:{seed}")
    docs, pert = [], []
    ev, uid, amt, ok, ts = [], [], [], [], []
    bad, perturbed = set(), set()
    for i in range(n):
        d = _doc(rng, i)
        ev.append(d["event"])
        uid.append(d["user"]["id"])
        a = d["amount"]
        amt.append(None if a is None else float(a))
        ok.append(d["event"] != "refund")
        ts.append(d["ts"])
        if i % BROKEN_EVERY == BROKEN_EVERY - 1:
            text = rng.choice(('{"event": "broken", "user": {', "42", '["a", 1'))
            bad.add(i)
            docs.append(text)
            pert.append(text)
            continue
        docs.append(json.dumps(d))
        if i % PERTURB_EVERY == PERTURB_EVERY // 2:
            perturbed.add(i)
            pert.append(json.dumps(_perturb(d, rng.randrange(3))))
        else:
            pert.append(docs[-1])
    ids = pa.array(range(n), pa.int64())
    table = pa.table({
        "id": ids,
        "doc": pa.array(docs, pa.string()),
        "event": pa.array(ev, pa.string()),
        "user_id": pa.array(uid, pa.int64()),
        "amount": pa.array(amt, pa.float64()),
        "ok": pa.array(ok, pa.bool_()),
        "ts": pa.array(ts, pa.string()).cast(pa.timestamp("s", tz="UTC")),
    })
    return EventCorpus(
        table=table,
        perturbed=pa.table({"id": ids, "doc": pa.array(pert, pa.string())}),
        bad_ids=bad,
        perturbed_ids=perturbed,
        event_types=set(ev),
    )


def shard_tables(table: pa.Table, n_shards: int) -> List[pa.Table]:
    step = -(-table.num_rows // n_shards)
    return [table.slice(i, step) for i in range(0, table.num_rows, step)]
