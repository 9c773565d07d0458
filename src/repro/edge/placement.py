"""Coordinator-side edge policy: popularity, placement, serve bookkeeping.

The :class:`PlacementManager` owns every decision the edge tier makes:

* a **decayed popularity estimator** — each play request bumps its
  title's score, every placement period multiplies all scores by
  ``decay``; titles crossing ``promote_score`` get their prefix pinned on
  the edges, titles falling to ``evict_score`` are evicted.  Under a Zipf
  workload the surviving set is exactly the Zipf head.
* **routing** — each client host maps to one edge by stable hash, so a
  viewer's repeat requests always land where its title's prefix lives.
* the **zero-disk-cost admission lane** — edge serves are charged to the
  edge's uplink through the ordinary admission ``apply``/``release``
  choke points (the manager is the Coordinator's ``edge_books``), so
  they are journaled, replayed and audited like every other grant while
  costing no MSU disk slot and no delivery flow.
* **serve bookkeeping** — a registry of in-flight edge serves, refunded
  wholesale when an edge dies (its serves died with it) and reconciled
  edge-wins when one says hello after a Coordinator restart.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.core.admission import Allocation
from repro.edge.proxy import EdgeConfig
from repro.net import messages as m
from repro.recovery.parts import Part, from_image, image

__all__ = ["EdgeView", "PlacementManager"]

#: Scores below this are dropped entirely (bounds the estimator's size).
SCORE_FLOOR = 0.001
#: How long an edge's just-served window counts as an interval hit for a
#: trailing viewer (seconds).
INTERVAL_TTL = 10.0


@dataclass
class EdgeView:
    """The Coordinator's picture of one edge (its resource record)."""

    name: str
    memory_budget: int = 0
    uplink_bps: float = 0.0
    #: The live control channel; None while detached (down or pre-hello).
    channel: object = None
    #: title -> pinned pages, per the edge's latest hello/report.
    pinned: Dict[str, int] = field(default_factory=dict)
    #: Bytes/sec of uplink charged to in-flight edge serves (the book
    #: the zero-disk-cost admission lane debits).
    uplink_used: float = 0.0
    bytes_pinned: int = 0
    prefix_bytes_served: int = 0
    patch_bytes_served: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def attached(self) -> bool:
        return self.channel is not None and getattr(self.channel, "open", False)

    def pinned_bytes(self, page_size: int) -> int:
        return sum(self.pinned.values()) * page_size


@dataclass
class _Serve:
    """One in-flight edge serve (prefix leg, patch window or interval)."""

    edge_name: str
    content_name: str
    kind: str
    end_page: int
    allocation: Allocation


class PlacementManager(Part):
    """Popularity tracking + prefix placement + the edge admission books."""

    SECTIONS = ("edge",)

    def __init__(self, coordinator, config: Optional[EdgeConfig] = None):
        self.coord = coordinator
        self.sim = coordinator.sim
        self.config = config or EdgeConfig()
        #: edge name -> resource record.
        self.edges: Dict[str, EdgeView] = {}
        #: title -> decayed request score.
        self.scores: Dict[str, float] = {}
        #: (group_id, stream_id) -> in-flight serve record.
        self.serves: Dict[Tuple[int, int], _Serve] = {}
        #: edge -> title -> (end_page, expires_at): windows a trailing
        #: viewer can ride as a pure interval hit.
        self.recent: Dict[str, Dict[str, Tuple[int, float]]] = {}
        self.prefix_serves = 0
        self.patch_serves = 0
        self.interval_serves = 0
        self.plan_misses = 0
        coordinator.install(m.EdgeReport, self.edge_report)
        coordinator.install(m.EdgeServeDone, self.serve_done)
        if not getattr(coordinator, "standby", False):
            self.sim.process(self._loop(), name="coord.placement")

    def activate(self) -> None:
        """Start the placement loop on a promoted warm standby."""
        self.sim.process(self._loop(), name="coord.placement")

    def attach_edge(self, channel) -> None:
        """Accept an edge proxy control connection; it will say hello."""
        self.sim.process(self._edge_loop(channel), name="coord.edge")

    def _edge_loop(self, channel) -> Generator:
        edge_name = None
        while True:
            msg = yield channel.recv(self.coord.name)
            if msg is None:
                # A halted Coordinator's closing channels are not edge
                # failures; edge_down ignores a stale channel's break.
                if not self.coord.dead and edge_name is not None:
                    self.edge_down(edge_name, channel)
                return
            if not isinstance(msg, m.EdgeHello):
                yield from self.coord._receive(msg)
                continue
            edge_name = msg.edge_name
            self.edge_hello(msg, channel)
            self.coord._trace("edge-up", edge_name,
                              f"budget={msg.memory_budget} "
                              f"pinned={len(msg.pinned)}")

    # -- popularity estimator ---------------------------------------------

    def note_request(self, content_name: str) -> None:
        self.scores[content_name] = self.scores.get(content_name, 0.0) + 1.0

    def decay(self) -> None:
        factor = self.config.decay
        self.scores = {
            name: score * factor
            for name, score in self.scores.items()
            if score * factor >= SCORE_FLOOR
        }

    def hot_titles(self) -> List[Tuple[str, float]]:
        return sorted(self.scores.items(), key=lambda kv: (-kv[1], kv[0]))

    # -- placement loop ----------------------------------------------------

    def _loop(self) -> Generator:
        period = self.config.placement_period
        while True:
            yield self.sim.timeout(period)
            if self.coord.dead:
                return
            self.decay()
            self.rebalance()

    def rebalance(self) -> None:
        """Pin rising titles, evict fallen ones, within each edge budget."""
        hot = self.hot_titles()
        for view in self.edges.values():
            if not view.attached:
                continue
            for name in list(view.pinned):
                if self.scores.get(name, 0.0) <= self.config.evict_score:
                    self._evict(view, name)
            for name, score in hot:
                if score < self.config.promote_score or name in view.pinned:
                    continue
                self._place(view, name)

    def _place(self, view: EdgeView, content_name: str) -> None:
        entry = self.coord.db.contents.get(content_name)
        if entry is None or entry.components or not entry.msu_name:
            return
        pages = min(entry.blocks, self.config.prefix_pages)
        if pages <= 0:
            return
        page_size = self.config.page_size
        if view.pinned_bytes(page_size) + pages * page_size > view.memory_budget:
            return
        view.pinned[content_name] = pages
        view.channel.send(
            self.coord.name,
            m.PlacePrefix(
                content_name, entry.msu_name, entry.disk_id,
                pages, page_size, self._rate_of(entry),
            ),
            nbytes=m.WIRE_BYTES,
        )
        self.coord._journal(
            "edge-place",
            {"edge": view.name, "content": content_name, "pages": pages},
        )
        self.coord._trace("edge-place", content_name,
                          f"edge={view.name} pages={pages}")

    def _evict(self, view: EdgeView, content_name: str) -> None:
        view.pinned.pop(content_name, None)
        view.channel.send(
            self.coord.name, m.EvictPrefix(content_name), nbytes=m.WIRE_BYTES
        )
        self.coord._journal(
            "edge-evict", {"edge": view.name, "content": content_name}
        )
        self.coord._trace("edge-evict", content_name, f"edge={view.name}")

    def _rate_of(self, entry) -> float:
        ctype = self.coord.types.get(entry.type_name)
        return ctype.bandwidth_rate if ctype is not None else 0.0

    # -- routing and planning ---------------------------------------------

    def live_edges(self) -> List[EdgeView]:
        return [v for v in self.edges.values() if v.attached]

    def edge_for(self, client_host: str) -> Optional[EdgeView]:
        """The client's assigned edge: stable hash over the live set."""
        live = sorted(self.live_edges(), key=lambda v: v.name)
        if not live:
            return None
        return live[zlib.crc32(str(client_host).encode()) % len(live)]

    def _uplink_fits(self, view: EdgeView, rate: float) -> bool:
        return view.uplink_used + rate <= view.uplink_bps + 1e-9

    def plan_prefix(
        self, entry, ctype, client_host: str
    ) -> Optional[Tuple[str, int, str]]:
        """Plan the edge leg of a unicast play: ``(edge, splice, kind)``.

        The edge serves pages ``[0, splice)`` from memory while the MSU
        tail stream starts at ``splice``; the splice is capped at
        ``blocks - 1`` so the MSU always anchors the stream (StreamReady,
        EOS and VCR handling stay exactly as they were).  Falls back to a
        recent interval window when no prefix is pinned; returns None on
        a miss (the request proceeds exactly as without edges).
        """
        view = self.edge_for(client_host)
        if view is None or entry.blocks <= 1:
            return None
        rate = ctype.bandwidth_rate if ctype is not None else 0.0
        kind = "prefix"
        pages = view.pinned.get(entry.name, 0)
        if pages <= 0:
            window = self.recent.get(view.name, {}).get(entry.name)
            if window is not None and window[1] >= self.sim.now:
                pages, kind = window[0], "interval"
        splice = min(pages, entry.blocks - 1)
        if splice <= 0 or not self._uplink_fits(view, rate):
            self.plan_misses += 1
            view.misses += 1
            return None
        return view.name, splice, kind

    def edge_leg(self, entry, ctype, client_host: str) -> Optional[tuple]:
        """:meth:`plan_prefix` plus its uplink grant:
        ``(edge, splice, kind, alloc)``, or None on a miss."""
        plan = self.plan_prefix(entry, ctype, client_host)
        return None if plan is None else self._granted(entry, ctype, plan)

    def cover_patch(
        self, entry, ctype, patch_pages: int, client_host: str
    ) -> Optional[tuple]:
        """The edge that can serve a whole patch window ``[0, patch_pages)``
        and its uplink grant: ``(edge, alloc)``, or None on a miss.

        Partial coverage is a miss — a patch split between edge and disk
        would still cost the MSU slot the lane exists to avoid.
        """
        view = self.edge_for(client_host)
        if view is None or patch_pages <= 0:
            return None
        if view.pinned.get(entry.name, 0) < patch_pages:
            self.plan_misses += 1
            view.misses += 1
            return None
        if not self._uplink_fits(view, ctype.bandwidth_rate):
            self.plan_misses += 1
            return None
        return self._granted(entry, ctype, (view.name,))

    def _granted(self, entry, ctype, plan: tuple) -> Optional[tuple]:
        """``plan + (alloc,)``, with the uplink grant on edge ``plan[0]``.

        A plan is never refused its grant: place_edge runs the same
        _uplink_fits on the same EdgeView, with no yield in between.
        Only admission books this part is not wired into decline.
        """
        alloc = self.coord.admission.place_edge(entry, ctype, plan[0])
        return None if alloc is None else plan + (alloc,)

    # -- the admission lane's books (edge_books protocol) ------------------

    def charge(self, alloc: Allocation) -> None:
        """Debit an edge allocation (called from ``AdmissionControl.apply``).

        Views are created lazily: WAL replay re-applies charges before
        any edge has said hello to the restarted Coordinator.
        """
        view = self.edges.setdefault(alloc.edge_name, EdgeView(alloc.edge_name))
        view.uplink_used += alloc.bandwidth

    def release(self, alloc: Allocation) -> None:
        view = self.edges.get(alloc.edge_name)
        if view is not None:
            view.uplink_used = max(0.0, view.uplink_used - alloc.bandwidth)

    def feasible(self, edge_name: str, rate: float) -> bool:
        view = self.edges.get(edge_name)
        return view is not None and self._uplink_fits(view, rate)

    # -- serve lifecycle ---------------------------------------------------

    def begin_serve(
        self, edge_name: str, group_id: int, stream_id: int, entry,
        start_page: int, end_page: int, rate: float, kind: str,
        display_address, alloc: Allocation,
    ) -> None:
        """Register, journal and dispatch one edge serve (synchronous)."""
        key = (group_id, stream_id)
        self.serves[key] = _Serve(edge_name, entry.name, kind, end_page, alloc)
        if kind == "patch":
            self.patch_serves += 1
        elif kind == "interval":
            self.interval_serves += 1
        else:
            self.prefix_serves += 1
        view = self.edges.get(edge_name)
        if view is not None:
            view.hits += 1
        self.coord._journal(
            "edge-serve",
            {
                "edge": edge_name, "group_id": group_id,
                "stream_id": stream_id, "content": entry.name,
                "kind": kind, "end_page": end_page,
                "alloc": image(alloc),
            },
        )
        if view is not None and view.attached:
            view.channel.send(
                self.coord.name,
                m.EdgeServe(
                    group_id, stream_id, entry.name,
                    tuple(display_address), start_page, end_page,
                    rate, self.config.page_size, kind,
                ),
                nbytes=m.WIRE_BYTES,
            )
        self.coord._trace(
            "edge-serve", entry.name,
            f"edge={edge_name} group={group_id} kind={kind} "
            f"pages=[{start_page},{end_page})",
        )
        # When the serve's whole span is already resident (pinned) on the
        # edge, the interval window is rideable *now* — a trailing viewer
        # need not wait for this serve to complete before hitting it.
        if (
            kind != "patch"
            and view is not None
            and view.pinned.get(entry.name, 0) >= end_page
        ):
            windows = self.recent.setdefault(edge_name, {})
            current = windows.get(entry.name)
            if current is None or current[0] <= end_page:
                windows[entry.name] = (
                    end_page, self.sim.now + INTERVAL_TTL
                )

    def serve_done(self, msg: m.EdgeServeDone) -> None:
        """An edge finished a serve: release its charge (idempotent —
        a late report after edge-wins reconciliation must no-op)."""
        record = self.serves.pop((msg.group_id, msg.stream_id), None)
        if record is None:
            return
        self.coord.admission.release(record.allocation)
        self.coord._journal(
            "edge-serve-done",
            {"group_id": msg.group_id, "stream_id": msg.stream_id,
             "nbytes": msg.nbytes, "kind": msg.kind},
        )
        view = self.edges.get(record.edge_name)
        if view is not None:
            if record.kind == "patch":
                view.patch_bytes_served += msg.nbytes
            else:
                view.prefix_bytes_served += msg.nbytes
        # The window just served trails fresh in edge memory: a viewer
        # arriving shortly after can ride it as a pure interval hit.
        if record.kind != "patch":
            windows = self.recent.setdefault(record.edge_name, {})
            windows[record.content_name] = (
                record.end_page, self.sim.now + INTERVAL_TTL
            )

    def _refund_edge(self, edge_name: str) -> None:
        """Refund every in-flight serve of a dead/reset edge wholesale."""
        for key, record in list(self.serves.items()):
            if record.edge_name != edge_name:
                continue
            del self.serves[key]
            self.coord.admission.release(record.allocation)

    # -- edge lifecycle (hello / report / down) ----------------------------

    def edge_hello(self, msg: m.EdgeHello, channel) -> None:
        """An edge (re)connected: its word wins, ours is refunded.

        Any serves we still carry for it died with its old incarnation
        (or were lost across our own restart) — refund them wholesale;
        its pinned inventory replaces our view.
        """
        view = self.edges.setdefault(msg.edge_name, EdgeView(msg.edge_name))
        view.memory_budget = msg.memory_budget
        view.uplink_bps = msg.uplink_bps
        view.channel = channel
        view.pinned = dict(msg.pinned)
        self._refund_edge(msg.edge_name)
        # A charge whose serve record was lost (crash between the two
        # journal appends) leaves residue the refund cannot see; the old
        # incarnation's serves are all gone, so zero is the truth.
        view.uplink_used = 0.0
        self.recent.pop(msg.edge_name, None)
        self.coord._journal(
            "edge-attach",
            {
                "edge": msg.edge_name,
                "memory_budget": msg.memory_budget,
                "uplink_bps": msg.uplink_bps,
                "pinned": sorted(dict(msg.pinned).items()),
            },
        )

    def edge_report(self, msg: m.EdgeReport) -> None:
        view = self.edges.get(msg.edge_name)
        if view is None or not view.attached:
            return
        view.pinned = dict(msg.pinned)
        view.bytes_pinned = msg.bytes_pinned
        view.prefix_bytes_served = max(
            view.prefix_bytes_served, msg.prefix_bytes_served
        )
        view.patch_bytes_served = max(
            view.patch_bytes_served, msg.patch_bytes_served
        )

    def reconcile(self, by_msu: dict, outcome) -> None:
        """Refund serve state for edges that have not re-attached.

        The restart counterpart of the silent-MSU rule: a replayed serve
        whose edge never says hello can never complete (its
        EdgeServeDone was sent into a closed channel or the edge is
        dead), so its charge must not outlive the recovery.  Attached
        edges were already reconciled edge-wins at their hello.
        """
        for name in sorted(self.edges):
            view = self.edges[name]
            if view.attached:
                continue
            dropped = sum(
                1 for serve in self.serves.values() if serve.edge_name == name
            )
            if dropped or view.pinned or view.uplink_used:
                outcome.discrepancies.append(
                    f"{name}: no EdgeHello; dropped {dropped} serve(s) "
                    f"and {len(view.pinned)} pin(s)"
                )
            self._refund_edge(name)
            view.pinned.clear()
            view.uplink_used = 0.0
            self.recent.pop(name, None)
            self.coord._journal("edge-down", {"edge": name})

    def edge_down(self, edge_name: str, channel) -> None:
        """The edge's current control channel broke (a stale one closing
        after a re-hello does not count): everything it held is gone."""
        view = self.edges.get(edge_name)
        if view is None or view.channel is not channel:
            return
        view.channel = None
        view.pinned.clear()
        self._refund_edge(edge_name)
        view.uplink_used = 0.0
        self.recent.pop(edge_name, None)
        self.coord._journal("edge-down", {"edge": edge_name})
        self.coord._trace("edge-down", edge_name, "control connection lost")

    # -- statistics --------------------------------------------------------

    def covered_serves(self) -> int:
        return self.prefix_serves + self.patch_serves + self.interval_serves

    def hit_ratio(self) -> float:
        total = self.covered_serves() + self.plan_misses
        return self.covered_serves() / total if total else 0.0

    # -- persistence (repro.recovery.parts) ---------------------------------

    def snapshot(self) -> dict:
        return {"edge": {
            "scores": sorted(self.scores.items()),
            "edges": [
                {
                    "name": v.name,
                    "memory_budget": v.memory_budget,
                    "uplink_bps": v.uplink_bps,
                    "pinned": sorted(v.pinned.items()),
                    "uplink_used": v.uplink_used,
                }
                for v in sorted(self.edges.values(), key=lambda v: v.name)
            ],
            "serves": [
                {
                    "group_id": gid, "stream_id": sid,
                    "edge": s.edge_name, "content": s.content_name,
                    "kind": s.kind, "end_page": s.end_page,
                    "alloc": image(s.allocation),
                }
                for (gid, sid), s in sorted(self.serves.items())
            ],
            "counters": {
                "prefix_serves": self.prefix_serves,
                "patch_serves": self.patch_serves,
                "interval_serves": self.interval_serves,
                "plan_misses": self.plan_misses,
            },
        }}

    def load(self, state: dict) -> None:
        data = state.get("edge") or {}
        self.scores = {name: score for name, score in data.get("scores", [])}
        self.edges.clear()
        self.serves.clear()
        self.recent.clear()
        for estate in data.get("edges", []):
            view = EdgeView(
                estate["name"],
                memory_budget=estate.get("memory_budget", 0),
                uplink_bps=estate.get("uplink_bps", 0.0),
            )
            view.pinned = {n: p for n, p in estate.get("pinned", [])}
            view.uplink_used = estate.get("uplink_used", 0.0)
            self.edges[view.name] = view
        for sstate in data.get("serves", []):
            self._replay_serve(sstate)
        counters = data.get("counters", {})
        self.prefix_serves = counters.get("prefix_serves", 0)
        self.patch_serves = counters.get("patch_serves", 0)
        self.interval_serves = counters.get("interval_serves", 0)
        self.plan_misses = counters.get("plan_misses", 0)

    def _forget_serves(self, edge_name: str) -> None:
        for key, record in list(self.serves.items()):
            if record.edge_name == edge_name:
                del self.serves[key]

    def _replay_attach(self, payload: dict) -> None:
        view = self.edges.setdefault(payload["edge"], EdgeView(payload["edge"]))
        view.memory_budget = payload.get("memory_budget", 0)
        view.uplink_bps = payload.get("uplink_bps", 0.0)
        view.pinned = {n: p for n, p in payload.get("pinned", [])}
        # No live channel survives a replay; the edge re-hellos later.
        view.channel = None
        # The hello refunded our in-flight serves for this edge (the
        # "release" records replay just before this one); drop the
        # matching registry entries too.
        self._forget_serves(payload["edge"])

    def _replay_down(self, payload: dict) -> None:
        view = self.edges.get(payload["edge"])
        if view is not None:
            view.channel = None
            view.pinned.clear()
            view.uplink_used = 0.0
        self._forget_serves(payload["edge"])

    def _replay_place(self, payload: dict) -> None:
        view = self.edges.setdefault(payload["edge"], EdgeView(payload["edge"]))
        view.pinned[payload["content"]] = payload["pages"]

    def _replay_evict(self, payload: dict) -> None:
        view = self.edges.get(payload["edge"])
        if view is not None:
            view.pinned.pop(payload["content"], None)

    def _replay_serve(self, payload: dict) -> None:
        # The uplink charge replays separately through the standard
        # "charge" record; only the registry entry is rebuilt here.
        key = (payload["group_id"], payload["stream_id"])
        self.serves[key] = _Serve(
            payload["edge"], payload["content"], payload["kind"],
            payload.get("end_page", 0),
            from_image(Allocation, payload["alloc"]),
        )

    REPLAY = {
        "edge-attach": _replay_attach,
        "edge-down": _replay_down,
        "edge-place": _replay_place,
        "edge-evict": _replay_evict,
        "edge-serve": _replay_serve,
        # Likewise the refund replays via "release"; just drop the entry.
        "edge-serve-done": lambda placement, payload: placement.serves.pop(
            (payload["group_id"], payload["stream_id"]), None
        ),
    }
