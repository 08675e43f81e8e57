"""Per-worker kernel state: the one place it lives.

Every stateful ``map_batches`` kernel in this package runs as a plain Ray
task, never as an actor pool. A pool's spin-up and batch queueing dominated
every stage it was measured on: the validator ran 1.55x slower end-to-end
as a pool (BASELINE.md round 5), and ``ds.stats()`` on the resample stage
showed ~3.5 s of its 4.0 s operator wall was pool spin-up + queueing
against ~8 core-seconds of busy time.

Ray reuses warm worker processes across tasks, so state built once per
worker amortizes exactly like an actor's ``__init__``:

* :func:`warm_kernel` turns a kernel class into a task function that
  builds ``cls(**ctor_kwargs)`` once per worker process;
* :func:`fetch` returns ``ray.get(ref)`` fetched once per worker process,
  for broadcast values (centroids, probe sets, query matrices).

Both share :data:`_CACHE`, an LRU of at most :data:`CACHE_ENTRIES`
entries. A fetched value is a zero-copy view that pins its object in the
store while cached, and every call that broadcasts a fresh ref adds a key,
so the bound is what keeps a long-lived worker from pinning every
broadcast of the session.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable

# entries (kernel instances + fetched values) one worker keeps; the least
# recently used one is evicted first
CACHE_ENTRIES = 8

_CACHE: "OrderedDict[tuple, object]" = OrderedDict()


def _cached(key: tuple, build: Callable[[], object]) -> object:
    # ``_CACHE`` is this module's global, resolved when the worker calls
    # in. Callers reach this function by reference (module + name), so
    # cloudpickle never snapshots the driver's cache CONTENTS into a
    # serialized UDF — which would ship whatever the driver happened to
    # build, and break when a cached instance isn't importable on workers.
    if key in _CACHE:
        _CACHE.move_to_end(key)
        return _CACHE[key]
    val = build()
    _CACHE[key] = val
    while len(_CACHE) > CACHE_ENTRIES:
        _CACHE.popitem(last=False)
    return val


def warm_kernel(cls: type, **ctor_kwargs: Hashable) -> Callable:
    """A plain function running ``cls(**ctor_kwargs).__call__`` through the
    per-worker cache. Pass the result to ``map_batches`` as a task
    function. ctor kwargs must be hashable (they key the cache); ObjectRefs
    are."""
    key = (cls.__module__, cls.__qualname__, tuple(sorted(ctor_kwargs.items())))

    def _run(batch):
        return _cached(key, lambda: cls(**ctor_kwargs))(batch)

    _run.__name__ = f"warm_{cls.__name__}"
    _run.__qualname__ = _run.__name__
    return _run


def fetch(ref):
    """``ray.get(ref)``, once per worker process per ref."""
    import ray

    return _cached(("ray.get", ref.hex()), lambda: ray.get(ref))
