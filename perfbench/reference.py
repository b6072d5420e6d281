"""Fixed reference kernels that measure the host's current speed.

The benchmark host is a shared VM whose speed drifts by 15-25% in phases
from seconds to minutes, and process CPU time drifts with it.  So run.py
times one chunk of these kernels before every item and divides the item
latencies of each pass by the mean factor of its chunks: the reported
times are what the items would take on a host where each kernel takes
its nominal time.  A change to lefgroup cannot move the kernels, which use
none of it; it moves the reported times by exactly its own effect.

The kernels are pure Python of the kinds lefgroup's hot paths are made
of, and their inputs are fixed, so every chunk does the same work:

- ``_reduce_words``: free reduction of syllable lists on a stack, tuples
  built from them, and dict counting;
- ``_chase``: dependent lookups in a table of a few MB, which follows the
  speed of the memory caches the host shares;
- ``_allocate``: a dict of tuple keys to lists, built and dropped, which
  follows the allocator's speed as coset and hom-search tables do.

A chunk's factor is the mean of the three kernels' time over nominal.
Now and then one kind of work slows in one process while the others do
not; the mean of three keeps that from skewing a whole run.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

_rng = random.Random(20140330)
_WORDS = [[(_rng.randint(1, 6), _rng.choice((-2, -1, 1, 2))) for _ in range(40)]
          for _ in range(16)]
_INVERSES = [[(g, -e) for g, e in reversed(w)] for w in _WORDS[:4]]
_SLOTS = 1 << 17
_TABLE = [_rng.randrange(_SLOTS) for _ in range(_SLOTS)]
_STARTS = [_rng.randrange(_SLOTS) for _ in range(8000)]


def _reduce(pairs):
    stack = []
    for gen, exp in pairs:
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((g, e) for g, e in stack)


def _reduce_words() -> int:
    seen: dict = {}
    for word in _WORDS:
        for inverse in _INVERSES:
            reduced = _reduce(word + inverse)
            seen[reduced] = seen.get(reduced, 0) + 1
    return len(seen)


def _chase() -> int:
    table = _TABLE
    acc = 0
    for i in _STARTS:
        acc ^= table[table[i]]
    return acc


def _allocate() -> int:
    table = {}
    for i in range(2500):
        key = (i, i * 7 % 13, (i, i))
        table[key] = [i, key]
    return len(table)


# each kernel's time on the baseline host (2 vCPUs of an Intel Xeon at
# 2.1 GHz, Python 3.11): about its median when run between items
KERNELS = ((_reduce_words, 0.00135), (_chase, 0.00115), (_allocate, 0.00075))


def timed_chunk() -> float:
    """Run each kernel twice and time the second run, so that what the
    last item left in the caches counts little; return the mean of the
    kernels' time over nominal.  The kernels make no reference cycles, so
    the cyclic collector is off meanwhile: its passes scale with the
    objects lefgroup keeps alive, which must not move the factor."""
    total = 0.0
    gc.disable()
    try:
        for kernel, nominal in KERNELS:
            kernel()
            start = perf_counter()
            kernel()
            total += (perf_counter() - start) / nominal
    finally:
        gc.enable()
    return total / len(KERNELS)


def warm_up() -> None:
    """Let the interpreter specialise the kernels before a chunk is timed."""
    for _ in range(5):
        timed_chunk()
