"""Merge-aware admission ledger for multicast channels.

Every multicast-side grant the Coordinator hands out is mirrored here so
the books can be audited: a channel owes one disk slot plus one delivery
flow for its whole life; a late joiner owes a bounded patch until the
patch drains and the viewer merges onto the channel (refund), leaves for
unicast (refund — the unicast slot is charged separately), or quits
(refund).  After every channel has drained, :meth:`AdmissionLedger.
outstanding` must be zero — the invariant E18's tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.recovery.parts import from_image, image

__all__ = ["AdmissionLedger", "ChannelLedger"]


@dataclass
class ChannelLedger:
    """Open charges and lifetime counters for one channel."""

    channel_id: int
    content_name: str
    rate: float
    #: Bandwidth currently charged for the channel stream itself.
    channel_charge: float = 0.0
    #: (viewer group_id) -> bandwidth charged for an undrained patch.
    patch_charges: Dict[int, float] = field(default_factory=dict)
    subscribers_total: int = 0
    patches_charged: int = 0
    patches_refunded: int = 0
    patches_cache_covered: int = 0
    closed: bool = False
    #: True when the MSU died and the admission books were zeroed
    #: wholesale (release_msu) rather than charge by charge.
    forced: bool = False

    def outstanding(self) -> float:
        return self.channel_charge + sum(self.patch_charges.values())


class AdmissionLedger:
    """Audit trail of multicast admission charges and refunds."""

    def __init__(self) -> None:
        self.channels: Dict[int, ChannelLedger] = {}
        self.channels_opened = 0
        self.channels_closed = 0
        self.patches_charged = 0
        self.patches_refunded = 0
        self.patches_cache_covered = 0

    # -- charges -----------------------------------------------------------

    def open_channel(self, channel_id: int, content_name: str, rate: float) -> None:
        self.channels[channel_id] = ChannelLedger(
            channel_id, content_name, rate, channel_charge=rate
        )
        self.channels_opened += 1

    def note_subscriber(self, channel_id: int) -> None:
        entry = self.channels.get(channel_id)
        if entry is not None:
            entry.subscribers_total += 1

    def charge_patch(
        self, channel_id: int, group_id: int, rate: float, cache_covered: bool
    ) -> None:
        entry = self.channels.get(channel_id)
        if entry is None:
            return
        entry.patch_charges[group_id] = rate
        entry.patches_charged += 1
        self.patches_charged += 1
        if cache_covered:
            entry.patches_cache_covered += 1
            self.patches_cache_covered += 1

    # -- refunds -----------------------------------------------------------

    def refund_patch(self, channel_id: int, group_id: int) -> bool:
        """Drop a patch charge; False when none was outstanding."""
        entry = self.channels.get(channel_id)
        if entry is None or group_id not in entry.patch_charges:
            return False
        del entry.patch_charges[group_id]
        entry.patches_refunded += 1
        self.patches_refunded += 1
        return True

    def close_channel(self, channel_id: int, forced: bool = False) -> None:
        """The channel drained (or its MSU died): zero its charges.

        Any patch still on the books refunds implicitly — with the
        channel gone, the MSU has torn the patch streams down too.
        """
        entry = self.channels.get(channel_id)
        if entry is None or entry.closed:
            return
        for group_id in list(entry.patch_charges):
            self.refund_patch(channel_id, group_id)
        entry.channel_charge = 0.0
        entry.closed = True
        entry.forced = forced
        self.channels_closed += 1

    # -- audit -------------------------------------------------------------

    def outstanding(self) -> float:
        """Total bandwidth currently charged across every channel."""
        return sum(entry.outstanding() for entry in self.channels.values())

    def balanced(self) -> bool:
        """True when every channel is closed with nothing outstanding."""
        return self.outstanding() == 0.0 and all(
            entry.closed for entry in self.channels.values()
        )

    def audit(self) -> list:
        """Ledger anomalies that must never occur, as strings.

        Valid at any instant: a closed channel keeps nothing on its
        books, charges never go negative, and refunds never outnumber
        charges.
        """
        problems = []
        for entry in self.channels.values():
            if entry.closed and entry.outstanding() != 0.0:
                problems.append(
                    f"channel {entry.channel_id}: closed with "
                    f"{entry.outstanding()} outstanding"
                )
            if entry.channel_charge < 0.0:
                problems.append(
                    f"channel {entry.channel_id}: negative channel charge "
                    f"{entry.channel_charge}"
                )
            for group_id, rate in entry.patch_charges.items():
                if rate < 0.0:
                    problems.append(
                        f"channel {entry.channel_id}: negative patch charge "
                        f"{rate} for group {group_id}"
                    )
            if entry.patches_refunded > entry.patches_charged:
                problems.append(
                    f"channel {entry.channel_id}: {entry.patches_refunded} "
                    f"refunds exceed {entry.patches_charged} charges"
                )
        if self.patches_refunded > self.patches_charged:
            problems.append(
                f"ledger: {self.patches_refunded} refunds exceed "
                f"{self.patches_charged} charges"
            )
        return problems

    def state(self) -> dict:
        """Snapshot image of the ledger (the multicast section carries it)."""
        return {
            "channels_opened": self.channels_opened,
            "channels_closed": self.channels_closed,
            "patches_charged": self.patches_charged,
            "patches_refunded": self.patches_refunded,
            "patches_cache_covered": self.patches_cache_covered,
            "channels": [image(e) for _, e in sorted(self.channels.items())],
        }

    def restore(self, state: dict) -> None:
        """Replace the ledger with a :meth:`state` image."""
        self.channels_opened = state.get("channels_opened", 0)
        self.channels_closed = state.get("channels_closed", 0)
        self.patches_charged = state.get("patches_charged", 0)
        self.patches_refunded = state.get("patches_refunded", 0)
        self.patches_cache_covered = state.get("patches_cache_covered", 0)
        self.channels.clear()
        for data in state.get("channels", ()):
            entry = from_image(ChannelLedger, data)
            self.channels[entry.channel_id] = entry

    def summary(self) -> Tuple[int, int, int, int]:
        return (
            self.channels_opened,
            self.channels_closed,
            self.patches_charged,
            self.patches_refunded,
        )
