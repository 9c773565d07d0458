"""MSU protocol-extension modules (§2.3.2).

"An MSU protocol extension module is comprised of two functions.  The
first performs any operations required by the protocol beyond the normal
sending or receiving of data packets. ... The MSU calls the second
extension function during recording to construct a delivery schedule."

A module therefore supplies:

* :meth:`ProtocolModule.delivery_time_us` — the delivery-time derivation
  used while recording.  The default derives it from the packet's arrival
  time; protocols with header timestamps (RTP, VAT) override it so the
  stored schedule "does not include the effects of network-induced jitter".
* :meth:`ProtocolModule.classify` — whether an incoming packet is data or
  an interleaved control message (RTP's control socket traffic is stored
  in-stream as KIND_CONTROL records and demultiplexed again on playback).
* :meth:`ProtocolModule.playback_ports` — how many UDP ports the display
  port consumes (RTP uses two: data and control).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ProtocolError
from repro.net.rtp import RtpHeader
from repro.net.vat import VatHeader
from repro.storage.ibtree import KIND_CONTROL, KIND_DATA

__all__ = [
    "ProtocolModule",
    "RawProtocol",
    "RtpProtocol",
    "VatProtocol",
    "ProtocolRegistry",
    "default_registry",
]


class ProtocolModule:
    """Base module: fixed-size packets at a constant rate, arrival-timed.

    This default handles "any protocol and/or encoding which can be
    handled by transmitting fixed sized packets at a constant rate".
    """

    name = "raw"

    def new_context(self) -> Dict:
        """Fresh per-stream recording state."""
        return {"first_arrival_us": None}

    def playback_ports(self) -> int:
        """UDP ports a display port of this protocol occupies."""
        return 1

    def classify(self, payload: bytes, ctx: Dict) -> int:
        """KIND_DATA or KIND_CONTROL for an incoming packet."""
        return KIND_DATA

    def delivery_time_us(self, payload: bytes, arrival_us: int, ctx: Dict) -> int:
        """Delivery-schedule offset for a packet recorded at ``arrival_us``.

        Offsets are relative to the start of the recording session
        ("arrival times in delivery schedules are not absolute", §2.2.1).
        """
        if ctx["first_arrival_us"] is None:
            ctx["first_arrival_us"] = arrival_us
        return arrival_us - ctx["first_arrival_us"]


class RawProtocol(ProtocolModule):
    """Explicit name for the default fixed-rate module."""


class _TimestampedProtocol(ProtocolModule):
    """Shared logic for protocols with a media timestamp in the header.

    A subclass defines ``_header_timestamp_us(payload)``: the packet's
    media time in microseconds, or None for a control message.
    """

    clock_hz = 1

    def new_context(self) -> Dict:
        return {"first_arrival_us": None, "first_ts_us": None}

    def delivery_time_us(self, payload: bytes, arrival_us: int, ctx: Dict) -> int:
        if ctx["first_arrival_us"] is None:
            ctx["first_arrival_us"] = arrival_us
        ts_us = self._header_timestamp_us(payload)
        if ts_us is None:
            # Control messages have no media timestamp: use arrival.
            return arrival_us - ctx["first_arrival_us"]
        if ctx["first_ts_us"] is None:
            ctx["first_ts_us"] = ts_us
        offset = ts_us - ctx["first_ts_us"]
        if offset < 0:
            raise ProtocolError(
                f"{self.name}: media timestamp moved backwards by {-offset} us"
            )
        return offset


class RtpProtocol(_TimestampedProtocol):
    """RTP [13]: two ports (data + control), timestamp-derived schedule."""

    name = "rtp"
    clock_hz = 90_000

    def playback_ports(self) -> int:
        return 2  # data and control

    def classify(self, payload: bytes, ctx: Dict) -> int:
        # The recording path marks control-socket traffic before storage;
        # anything unparseable as RTP is treated as a control message.
        try:
            RtpHeader.parse(payload)
            return KIND_DATA
        except ProtocolError:
            return KIND_CONTROL

    def _header_timestamp_us(self, payload: bytes) -> Optional[int]:
        try:
            return RtpHeader.parse(payload).timestamp_us(self.clock_hz)
        except ProtocolError:
            return None


class VatProtocol(_TimestampedProtocol):
    """VAT [17] audio: timestamp-derived schedule, single port."""

    name = "vat"
    clock_hz = 8_000

    def _header_timestamp_us(self, payload: bytes) -> Optional[int]:
        try:
            return VatHeader.parse(payload).timestamp_us(self.clock_hz)
        except ProtocolError:
            return None


class ProtocolRegistry:
    """The MSU's installed protocol modules; extensible at runtime."""

    def __init__(self):
        self._modules: Dict[str, ProtocolModule] = {}

    def install(self, module: ProtocolModule) -> None:
        """Add a module (new protocols "can be added to the system easily")."""
        self._modules[module.name] = module

    def get(self, name: str) -> ProtocolModule:
        """Look up a module; raises for unknown protocols."""
        try:
            return self._modules[name]
        except KeyError:
            raise ProtocolError(f"no protocol module {name!r} installed") from None

    def names(self):
        """Installed module names, sorted."""
        return sorted(self._modules)


def default_registry() -> ProtocolRegistry:
    """The modules a stock MSU ships with: raw, RTP and VAT."""
    reg = ProtocolRegistry()
    reg.install(RawProtocol())
    reg.install(RtpProtocol())
    reg.install(VatProtocol())
    return reg
