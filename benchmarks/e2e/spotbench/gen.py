"""Deterministic load generators: pure functions of ``(seed, sizes, world)``.

Nothing here touches the service.  The harness hands the generated
requests to the program and the program sees nothing else, so two runs
with the same ``--seed`` offer byte-identical traffic.  ``world`` means
the catalog's pool list and the fixture's round times -- facts about
the data the requests address, never about how it is stored.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from itertools import islice
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

Pool = Tuple[str, str, str]


class Frame(NamedTuple):
    """The time coordinates requests are phrased against."""

    first: float          # first archived round
    hot_start: float      # windows starting here never reach the cold tier
    last: float           # last committed round
    #: (``YYYY-MM-DD``, commit time) of every archived round
    rounds: Tuple[Tuple[str, float], ...]


class Op(NamedTuple):
    """One generated request, minus the time window.

    ``window`` names how :func:`params_for` phrases time against a
    :class:`Frame`: ``"at"`` (point read at the last round), ``"hot"``
    (strictly inside the hot tier), ``"all"`` (all history, so the read
    crosses the tier boundary) or ``""`` (the path carries the time).
    ``pages`` > 1 makes the client follow ``next_token`` that many pages.
    """

    name: str
    path: str
    fixed: Tuple[Tuple[str, str], ...]
    window: str
    pages: int = 1


def params_for(op: Op, frame: Frame) -> Dict[str, str]:
    """The query parameters of ``op`` against ``frame``."""
    params = dict(op.fixed)
    if op.window == "at":
        params["at"] = repr(frame.last)
    elif op.window == "hot":
        params["start"] = repr(frame.hot_start)
        params["end"] = repr(frame.last)
    elif op.window == "all":
        params["start"] = repr(frame.first)
        params["end"] = repr(frame.last)
    return params


# -- samplers ---------------------------------------------------------------

def zipf_cdf(n: int, s: float) -> List[float]:
    """Cumulative zipf(s) distribution over ranks ``0..n-1``."""
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    cdf[-1] = 1.0
    return cdf


def draw_rank(cdf: Sequence[float], u: float) -> int:
    """Rank whose cdf bucket holds the uniform draw ``u`` in [0, 1)."""
    return bisect_left(cdf, u)


def hot_key_space(seed: int, pools: Sequence[Pool], k: int) -> List[Pool]:
    """``k`` pools in popularity order (rank 0 is the hottest)."""
    return random.Random(f"{seed}:keys").sample(list(pools),
                                                min(k, len(pools)))


def verify_sample(seed: int, pools: Sequence[Pool], k: int) -> List[Pool]:
    """The pools the oracle verification reads back."""
    return random.Random(f"{seed}:verify").sample(list(pools),
                                                  min(k, len(pools)))


# -- ops --------------------------------------------------------------------

def _pool_keys(pool: Pool) -> Tuple[Tuple[str, str], ...]:
    return (("instance_type", pool[0]), ("region", pool[1]),
            ("zone", pool[2]))


def make_op(name: str, pool: Pool, rng: random.Random, *,
            rounds: Sequence[Tuple[str, float]] = (), pool_count: int = 0,
            paged_limit: int = 16, paged_pages: int = 3,
            rounds_page_limit: int = 500) -> Op:
    """Build the op called ``name`` for key ``pool``.

    ``rng`` supplies the op's secondary choices (dataset, round, page
    offset), so the op is a pure function of the rng state.
    """
    if name == "latest":
        return Op(name, "/latest", _pool_keys(pool), "at")
    if name in ("hist_pool_hot", "hist_pool_cold"):
        path = "/sps/history" if rng.random() < 0.5 else "/price/history"
        return Op(name, path, _pool_keys(pool),
                  "hot" if name.endswith("_hot") else "all")
    if name == "hist_type_hot":
        return Op(name, "/price/history",
                  (("instance_type", pool[0]), ("limit", "100")), "hot")
    if name == "hist_type_cold_paged":
        return Op(name, "/price/history",
                  (("instance_type", pool[0]), ("limit", str(paged_limit))),
                  "all", pages=paged_pages)
    if name in ("analytics_hot", "analytics_cold"):
        hot = name.endswith("_hot")
        return Op(name, "/analytics",
                  (("dataset", "price" if hot else "sps"),
                   ("instance_type", pool[0]), ("group_by", "region"),
                   ("bucket", "600")), "hot" if hot else "all")
    if name == "rounds_page":
        day, at = rounds[rng.randrange(len(rounds))]
        pages = max(1, -(-pool_count // rounds_page_limit))
        offset = rng.randrange(pages) * rounds_page_limit
        return Op(name, f"/rounds/{day}",
                  (("at", repr(at)), ("limit", str(rounds_page_limit)),
                   ("offset", str(offset))), "")
    raise ValueError(f"unknown op {name!r}")


def mix_block(mix: Sequence[Tuple[str, int]], paged_pages: int) -> List[str]:
    """The smallest list of op names whose *requests* are in ``mix``
    proportion (a paged walk is ``paged_pages`` requests)."""
    counts = [weight * paged_pages // (paged_pages
                                       if name.endswith("_paged") else 1)
              for name, weight in mix]
    divisor = math.gcd(*counts)
    return [name for (name, _), count in zip(mix, counts)
            for _ in range(count // divisor)]


def op_stream(seed: int, client: int, mix: Sequence[Tuple[str, int]],
              keys: Sequence[Pool], zipf_s: Optional[float],
              **op_sizes) -> Iterator[Op]:
    """Endless op sequence of one client.

    Op names come in shuffled blocks that each hold the ``mix`` (percent
    of requests) exactly, so two seeds offer the same composition and
    differ only in order and keys; keys are drawn zipf(``zipf_s``) over
    ``keys`` in rank order, or uniformly when ``zipf_s`` is None.  Each
    client owns its stream, so a paged walk never crosses threads.
    """
    rng = random.Random(f"{seed}:ops:{client}")
    block = mix_block(mix, op_sizes.get("paged_pages", 1))
    cdf = zipf_cdf(len(keys), zipf_s) if zipf_s is not None else None
    while True:
        rng.shuffle(block)
        for name in list(block):
            if cdf is None:
                pool = keys[rng.randrange(len(keys))]
            else:
                pool = keys[draw_rank(cdf, rng.random())]
            yield make_op(name, pool, rng, **op_sizes)


def schedule(count: int, *args, **kwargs) -> List[Op]:
    """The first ``count`` ops of :func:`op_stream`."""
    return list(islice(op_stream(*args, **kwargs), count))


# -- tenants and virtual time -----------------------------------------------

#: (name, rate, burst): two tenants whose limits never bind, so every
#: admission decision is independent of thread interleaving
TENANTS = (("tenant-0", 1e6, 1e6), ("tenant-1", 1e6, 1e6))


def tenant_of(k: int) -> str:
    """API key of request ``k`` (round-robin over :data:`TENANTS`)."""
    return f"key-{TENANTS[k % len(TENANTS)][0]}"


def due_time(k: int, rate: float) -> float:
    """Seconds after the phase start at which request ``k`` is due; also
    its virtual ``arrival_time``."""
    return k / rate
