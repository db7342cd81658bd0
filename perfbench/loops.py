"""Load drivers shared by the streaming workloads."""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from perfbench.stats import Samples


@dataclass
class OpenLoopResult:
    """What an open-loop phase observed.

    ``freshness`` holds one sample per offered event: from the time the
    event was *due* to the end of the tick that applied it (a rejected
    event is a failed sample).  ``lag`` holds how late the generator
    offered each event relative to its due time.  ``ticks`` counts the
    ticks that applied events: the events of one tick share its end.
    """

    freshness: Samples = field(default_factory=Samples)
    lag: Samples = field(default_factory=Samples)
    offered: int = 0
    rejected: int = 0
    ticks: int = 0


def open_loop(
    events,
    rate: float,
    duration: float,
    submit,
    tick,
    *,
    clock=time.perf_counter,
    sleep=time.sleep,
) -> OpenLoopResult:
    """Offer ``rate`` events per second for ``duration`` seconds.

    Event ``i`` is due at ``start + i / rate`` whether or not the system
    kept up, so a stall delays every later event and that delay counts.
    ``submit(event) -> bool`` offers one event; ``tick() -> int`` applies
    queued events and returns how many it took, oldest first.  After the
    last due event the queue is drained.
    """
    out = OpenLoopResult()
    n_due = int(duration * rate)
    pending: deque[float] = deque()  # due times of queued events, FIFO
    it = iter(events)
    start = clock()
    i = 0
    while i < n_due or pending:
        now = clock()
        while i < n_due and start + i / rate <= now:
            due = start + i / rate
            out.lag.add(now - due)
            if submit(next(it)):
                pending.append(due)
            else:
                out.rejected += 1
                out.freshness.fail()
            out.offered += 1
            i += 1
        if pending:
            taken = tick()
            end = clock()
            out.ticks += 1
            for _ in range(taken):
                out.freshness.add(end - pending.popleft())
        elif i < n_due:
            sleep(max(0.0, start + i / rate - clock()))
    return out
