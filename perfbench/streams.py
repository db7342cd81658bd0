"""Seeded event streams for the serve and shard workloads.

The program under test sees only the ``(author, page, t)`` tuples these
generators produce.  A stream is a pure function of its seed: the same
seed always yields the same events (checked through
:func:`stream_digest`).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

#: Bot-cohort share of the stream; the rest is organic noise.
BOT_SHARE = 0.6
N_COHORTS = 4
COHORT_BOTS = 10
COHORT_PAGES = 5
COHORT_EPOCH_S = 3_000
NOISE_USERS = 2_000
NOISE_PAGES = 800
JITTER_S = 30
#: How far before the live window a deliberately late event is stamped.
LATE_BY_S = 2_000


@dataclass(frozen=True)
class StreamSpec:
    """Shape of one generated stream.

    ``late_share`` of the events (after the first window) are stamped
    ``LATE_BY_S`` seconds before the live window, ``now - horizon -
    LATE_BY_S``, so a service with that horizon must drop every one of
    them as late.  No other event is ever late: arrival jitter is far
    smaller than the horizon.
    """

    horizon: int
    late_share: float = 0.0


def iter_events(seed: int, spec: StreamSpec):
    """Endless ``(event, deliberately_late)`` pairs.

    Rotating bot cohorts post on their cohort's hot pages; noise users
    post on a wide page set.  Stream time advances 0–2 s per event
    (about one event per second), with ±``JITTER_S`` arrival jitter.
    """
    rng = random.Random(seed)
    t = 0
    while True:
        cohort = (t // COHORT_EPOCH_S) % N_COHORTS
        if rng.random() < BOT_SHARE:
            author = f"bot{cohort}_{rng.randrange(COHORT_BOTS)}"
            page = f"hot{cohort}_{rng.randrange(COHORT_PAGES)}"
        else:
            author = f"user{rng.randrange(NOISE_USERS)}"
            page = f"page{rng.randrange(NOISE_PAGES)}"
        stamp = t + rng.randrange(-JITTER_S, JITTER_S + 1)
        late = (
            spec.late_share > 0
            and t > spec.horizon + LATE_BY_S + JITTER_S
            and rng.random() < spec.late_share
        )
        if late:
            stamp = t - spec.horizon - LATE_BY_S
        yield (author, page, stamp), late
        t += rng.randrange(0, 3)


def first_events(seed: int, spec: StreamSpec, n: int) -> list:
    """The first *n* events of a stream, without their late flags."""
    return [event for event, _late in itertools.islice(iter_events(seed, spec), n)]


def stream_digest(events) -> str:
    """SHA-256 over the events' text form (order-sensitive)."""
    h = hashlib.sha256()
    for author, page, t in events:
        h.update(f"{author}\t{page}\t{t}\n".encode())
    return h.hexdigest()
