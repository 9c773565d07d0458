"""Client playout-buffer model (§2.2.1).

"We assume that clients have enough buffer space to smooth any jitter
introduced by either the approximate scheduling or the intervening
network.  A 200 KByte buffer will hold more than one second of
1.5 Mbit/sec video."

The model replays a list of (arrival time, bytes) against a consumer that
starts after ``startup_delay`` and drains at the nominal rate, tracking
buffer occupancy, underflows (still frames / audio dropouts) and
overflows (discarded data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["PlayoutBuffer", "PlayoutReport", "splice_flows"]


def splice_flows(
    patch: List[Tuple[float, int]], channel: List[Tuple[float, int]]
) -> List[Tuple[float, int]]:
    """Merge a late joiner's two flows into one playable arrival list.

    A patched viewer receives the title's opening pages as a unicast
    ``patch`` while the multicast ``channel`` delivers pages from further
    in; the patch plays immediately and channel data buffers until the
    patch drains.  The splice models that: channel arrivals are deferred
    to the end of the patch (they sat in the playout buffer), then both
    lists merge in delivery order for :meth:`PlayoutBuffer.evaluate`.

    With no patch (a batched viewer, or plain unicast) the other flow
    passes through unchanged.
    """
    if not patch:
        return sorted(channel)
    if not channel:
        return sorted(patch)
    patch = sorted(patch)
    patch_end = patch[-1][0]
    deferred = [(max(when, patch_end), nbytes) for when, nbytes in sorted(channel)]
    return sorted(patch + deferred)


@dataclass(frozen=True)
class PlayoutReport:
    """What a playout simulation observed."""

    underflows: int
    overflow_bytes: int
    max_occupancy: int
    min_occupancy_after_start: int
    stall_seconds: float


class PlayoutBuffer:
    """A fixed-size client buffer drained at a constant rate."""

    def __init__(
        self,
        capacity_bytes: int = 200_000,
        rate: float = 187_500.0,
        startup_delay: float = 1.0,
    ):
        if capacity_bytes <= 0 or rate <= 0 or startup_delay < 0:
            raise ValueError("bad playout parameters")
        self.capacity_bytes = capacity_bytes
        self.rate = rate
        self.startup_delay = startup_delay

    def evaluate(self, arrivals: List[Tuple[float, int]]) -> PlayoutReport:
        """Replay ``arrivals`` (time, nbytes) and report buffer behaviour.

        An underflow is a moment the consumer wants data and the buffer is
        empty; consumption then stalls until the next arrival (a "still
        frame").  Bytes beyond capacity are discarded (overflow).
        """
        if not arrivals:
            return PlayoutReport(0, 0, 0, 0, 0.0)
        arrivals = sorted(arrivals)
        start = arrivals[0][0] + self.startup_delay
        occupancy = 0.0
        consumed_until = start
        underflows = 0
        overflow_bytes = 0
        max_occ = 0
        min_occ = None
        stall = 0.0
        for when, nbytes in arrivals:
            if when > consumed_until and consumed_until >= start:
                # Drain the interval since the last event.
                want = (when - consumed_until) * self.rate
                if want > occupancy:
                    underflows += 1
                    stall += (want - occupancy) / self.rate
                    occupancy = 0.0
                else:
                    occupancy -= want
                consumed_until = when
            elif when > start and consumed_until < start:
                consumed_until = max(consumed_until, start)
            occupancy += nbytes
            if occupancy > self.capacity_bytes:
                overflow_bytes += int(occupancy - self.capacity_bytes)
                occupancy = float(self.capacity_bytes)
            max_occ = max(max_occ, int(occupancy))
            if when >= start:
                min_occ = int(occupancy) if min_occ is None else min(min_occ, int(occupancy))
        return PlayoutReport(
            underflows=underflows,
            overflow_bytes=overflow_bytes,
            max_occupancy=max_occ,
            min_occupancy_after_start=min_occ if min_occ is not None else 0,
            stall_seconds=stall,
        )
