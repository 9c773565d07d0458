"""Experiment command line: regenerate any table or figure.

Usage::

    python -m repro.tools.cli list
    python -m repro.tools.cli table1
    python -m repro.tools.cli graph1 --duration 60
    python -m repro.tools.cli all --duration 30
    python -m repro.tools.cli verify --seed 1..5 --ops 50
    python -m repro.tools.cli verify --seed 1..5 --shards 4 --standby
    python -m repro.tools.cli verify --replay repro.json
    python -m repro.tools.cli recovery journal.json --replay
    python -m repro.tools.cli recovery journal.json --follow
    python -m repro.tools.cli edge --edges 2 --duration 30

Each experiment subcommand is an entry of ``repro.experiments.REGISTRY``:
it runs at the entry's defaults (``--duration``, if given, sets the window
of those that have one) and prints the table (see EXPERIMENTS.md).  ``verify``
runs the chaos harness instead: seed-deterministic fault schedules with
cross-subsystem invariant checking (DESIGN.md §9); a failing schedule is
shrunk and written to a replayable repro file.  ``--shards``/``--standby``
run the same sweep against a scaled-out Coordinator (DESIGN.md §14) with
the leader-kill and shard-partition fault kinds enabled.  ``recovery``
inspects, replays or compacts a Coordinator journal file (DESIGN.md §10);
``--follow`` tails one as new records land, the way the warm standby does.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.experiments import REGISTRY

__all__ = ["main", "follow_journal"]


def _parse_seeds(spec: str) -> list:
    """``"7"`` -> [7]; ``"1..5"`` -> [1, 2, 3, 4, 5].

    Also the argparse ``type`` of ``verify --seed``: a malformed or
    reversed range is a usage error, not an empty sweep.
    """
    lo, dots, hi = spec.partition("..")
    try:
        first = int(lo)
        last = int(hi) if dots else first
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad seed spec {spec!r}: want N or LO..HI"
        ) from None
    if last < first:
        raise argparse.ArgumentTypeError(f"reversed seed range {spec!r}")
    return list(range(first, last + 1))


def positive_seconds(text: str) -> float:
    """argparse ``type`` of ``--duration``: a window must be > 0 seconds."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def build_verify_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calliope-experiments verify",
        description="Run chaos schedules against the invariant registry.",
    )
    parser.add_argument(
        "--seed", type=_parse_seeds, default="1",
        help="seed or inclusive range, e.g. '7' or '1..5' (default 1)",
    )
    parser.add_argument(
        "--ops", type=int, default=50,
        help="fault ops per schedule (default 50)",
    )
    parser.add_argument(
        "--horizon", type=float, default=20.0,
        help="simulated seconds the fault plan spans (default 20)",
    )
    parser.add_argument(
        "--replay", metavar="FILE", default=None,
        help="replay a repro file instead of generating from --seed",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="on failure, skip minimization and report the full schedule",
    )
    parser.add_argument(
        "--repro", metavar="FILE", default=None,
        help="where to write the (shrunk) failing schedule "
             "(default chaos-repro-seed<N>.json in the cwd)",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="admission shards on the Coordinator (default 1: the "
             "classic serial Coordinator; >1 enables the escrowed books "
             "and the shard_partition fault kind)",
    )
    parser.add_argument(
        "--standby", action="store_true",
        help="keep a warm standby tailing the journal from bring-up and "
             "enable the coordinator_failover fault kind",
    )
    return parser


def verify_main(argv) -> int:
    from repro.verify import (
        ChaosConfig, ChaosSchedule, load_repro, run_schedule, shrink,
        write_repro,
    )

    args = build_verify_parser().parse_args(argv)
    config = None
    kinds = None
    if args.shards > 1 or args.standby:
        from repro.verify.faults import SCALEOUT_FAULT_KINDS

        config = ChaosConfig(n_shards=args.shards, standby=args.standby)
        kinds = SCALEOUT_FAULT_KINDS
    if args.replay is not None:
        schedules = [load_repro(args.replay)]
    else:
        schedules = [
            ChaosSchedule.generate(
                seed, args.ops, horizon=args.horizon, kinds=kinds
            )
            for seed in args.seed
        ]
    failures = 0
    for schedule in schedules:
        report = run_schedule(schedule, config)
        print(report.summary())
        if report.ok:
            continue
        failures += 1
        for violation in report.violations:
            print(f"  {violation}")
        if not args.no_shrink:
            small, small_report = shrink(schedule, config)
            print(f"  shrunk {len(schedule)} -> {len(small)} ops:")
            for op in small.ops:
                print(f"    {op.at:9.4f}s {op.kind} {op.args}")
            schedule, report = small, small_report
        path = args.repro or f"chaos-repro-seed{schedule.seed}.json"
        write_repro(schedule, path, report)
        print(f"  repro written to {path}")
    return 1 if failures else 0


def build_recovery_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calliope-experiments recovery",
        description="Inspect, replay or compact a Coordinator journal file.",
    )
    parser.add_argument(
        "journal", metavar="FILE",
        help="journal JSON (calliope-journal-v1), e.g. saved by a harness run",
    )
    parser.add_argument(
        "--replay", action="store_true",
        help="replay snapshot+WAL into a fresh Coordinator and summarize "
             "the resulting state",
    )
    parser.add_argument(
        "--compact", metavar="OUT", default=None,
        help="replay, fold the WAL into a fresh snapshot, write to OUT",
    )
    parser.add_argument(
        "--follow", action="store_true",
        help="after the summary, tail the file: print each new WAL "
             "record as it lands (Ctrl-C to stop), resyncing when a "
             "snapshot install truncates the log — the warm standby's "
             "view of the journal",
    )
    parser.add_argument(
        "--since", type=int, default=None, metavar="SEQ",
        help="with --follow, also print existing records after SEQ "
             "(default: only records newer than the file right now)",
    )
    parser.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="with --follow, re-read cadence (default 0.5)",
    )
    parser.add_argument(
        "--max-polls", type=int, default=None, metavar="N",
        help="with --follow, stop after N re-reads (default: forever)",
    )
    return parser


def follow_journal(
    path,
    since_seq: int = 0,
    poll: float = 0.5,
    max_polls: Optional[int] = None,
    sleep=None,
    emit=print,
) -> int:
    """Tail a journal file: emit records past ``since_seq`` as they land.

    Re-reads the whole file each poll (journals are single JSON
    documents, rewritten atomically by their writers — there is no
    append-only byte stream to seek into).  A snapshot whose seq passes
    our position means the WAL was truncated underneath us; that is
    reported as a ``resync`` line and the cursor jumps, exactly like the
    warm standby's :meth:`StandbyCoordinator.sync`.  Returns the highest
    seq emitted.  ``sleep``/``emit`` are injectable for tests.
    """
    import pathlib
    import time

    from repro.recovery import JournalStore

    if sleep is None:
        sleep = time.sleep
    target = pathlib.Path(path)
    seq = since_seq
    polls = 0
    while True:
        try:
            store = JournalStore.from_json(target.read_text())
        except (OSError, ValueError):
            store = None  # mid-rewrite or briefly missing: just retry
        if store is not None:
            if store.snapshot is not None and store.snapshot_seq > seq:
                emit(f"  resync: snapshot installed at seq "
                     f"{store.snapshot_seq} (WAL truncated)")
                seq = store.snapshot_seq
            for record in store.records:
                if record.seq <= seq:
                    continue
                emit(f"  {record.seq:>6}  {record.kind:<16} {record.payload}")
                seq = record.seq
        polls += 1
        if max_polls is not None and polls >= max_polls:
            return seq
        sleep(poll)


def _replay_journal(store):
    """Cold-start a throwaway Coordinator from ``store``; returns it.

    The Coordinator gets every subsystem the journal names, by snapshot
    section or record kind, so nothing is dropped on the way through.
    ``recover`` raises ValueError for any state it still cannot place
    (escrow records without the snapshot that fixes the shard count).
    """
    from repro.core.cluster import ClusterConfig, build_coordinator
    from repro.edge import EdgeConfig
    from repro.live import LiveConfig
    from repro.multicast import MulticastConfig
    from repro.recovery import recover
    from repro.scaleout import ScaleOutConfig
    from repro.sim import Simulator

    snapshot = store.snapshot or {}
    kinds = set(store.counts_by_kind())

    def named(section: str, prefix: str):
        return bool(snapshot.get(section)) or any(
            kind.startswith(prefix) for kind in kinds
        )

    shards = snapshot.get("shards")
    coord = build_coordinator(Simulator(), ClusterConfig(
        failover=None,
        multicast=MulticastConfig() if named("multicast", "mcast-") else None,
        edge=EdgeConfig() if named("edge", "edge-") else None,
        live=LiveConfig() if named("live", "live-") else None,
        scaleout=ScaleOutConfig(shards=shards["n"]) if shards else None,
    ))
    coord.replayed_records = recover(coord, store)
    return coord


def recovery_main(argv) -> int:
    import pathlib

    from repro.recovery import JournalStore

    args = build_recovery_parser().parse_args(argv)
    try:
        store = JournalStore.from_json(pathlib.Path(args.journal).read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot load {args.journal}: {exc}")
        return 1
    print(f"journal {args.journal}")
    print(f"  snapshot: {'yes' if store.snapshot is not None else 'no'}"
          f" (seq {store.snapshot_seq})")
    print(f"  WAL records: {store.wal_length()}")
    for kind, count in sorted(store.counts_by_kind().items()):
        print(f"    {kind:<16} {count}")
    if args.follow:
        last = store.records[-1].seq if store.records else store.snapshot_seq
        since = last if args.since is None else args.since
        print(f"following from seq {since} (poll {args.poll}s, Ctrl-C stops)")
        try:
            follow_journal(
                args.journal, since_seq=since, poll=args.poll,
                max_polls=args.max_polls,
            )
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        return 0
    if not (args.replay or args.compact):
        return 0
    try:
        coord = _replay_journal(store)
    except ValueError as exc:
        print(f"cannot replay {args.journal}: {exc}")
        return 1
    db = coord.db
    print(f"replayed {coord.replayed_records} records:")
    print(f"  MSUs: {len(db.msus)} "
          f"({sum(1 for s in db.msus.values() if s.available)} available)")
    print(f"  content entries: {len(db.contents)}")
    print(f"  customers: {len(db.customers)}")
    print(f"  sessions: {len(coord.sessions)}")
    print(f"  stream groups: {len(coord.groups)}")
    print(f"  queued tickets: {len(coord.admission.queue)}")
    if args.compact:
        from repro.recovery import snapshot_state

        store.install_snapshot(snapshot_state(coord))
        pathlib.Path(args.compact).write_text(store.to_json())
        print(f"compacted journal written to {args.compact} "
              f"(snapshot seq {store.snapshot_seq}, WAL 0)")
    return 0


def positive_int(text: str) -> int:
    """argparse ``type`` of ``edge --edges/--titles``: a count must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def build_edge_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calliope-experiments edge",
        description="Run a short edged workload and show per-edge state: "
                    "pinned prefixes, hit ratios, uplink and bytes served.",
    )
    parser.add_argument(
        "--edges", type=positive_int, default=2,
        help="number of EdgeProxy nodes (default 2)",
    )
    parser.add_argument(
        "--titles", type=positive_int, default=6,
        help="catalog size for the Zipf workload (default 6)",
    )
    parser.add_argument(
        "--duration", type=positive_seconds, default=30.0,
        help="simulated seconds of offered load (default 30)",
    )
    parser.add_argument(
        "--seed", type=int, default=7,
        help="workload seed (default 7)",
    )
    return parser


def edge_main(argv) -> int:
    """Drive a small edged cluster and print the edge tier's state."""
    from repro.core.cluster import CalliopeCluster, ClusterConfig
    from repro.edge import EdgeConfig
    from repro.experiments._support import load_titles, run_population
    from repro.multicast import MulticastConfig
    from repro.sim import Simulator

    args = build_edge_parser().parse_args(argv)
    cluster = CalliopeCluster(
        Simulator(),
        ClusterConfig(
            n_msus=1,
            disks_per_hba=(1,),
            multicast=MulticastConfig(batch_window=0.5, patch_horizon=6.0),
            edge=EdgeConfig(
                n_edges=args.edges,
                prefix_pages=128,
                placement_period=0.5,
                promote_score=0.5,
                evict_score=0.01,
                decay=0.9,
            ),
        ),
    )
    titles = load_titles(cluster, args.titles, 48.0, args.seed)
    run_population(
        cluster, titles, 48.0, 8.0, args.duration, args.seed, zipf_s=1.0
    )

    placement = cluster.coordinator.placement
    print(f"edge tier after {args.duration:.0f}s of Zipf(1.0) load "
          f"({len(cluster.edges)} edge(s), {len(titles)} titles)")
    for proxy in cluster.edges:
        view = placement.edges.get(proxy.name) if placement else None
        total = proxy.hits + proxy.misses
        ratio = proxy.hits / total if total else 0.0
        state = "down" if proxy.down else (
            "attached" if view is not None and view.attached else "detached")
        print(f"  {proxy.name} [{state}]")
        print(f"    pinned bytes:  {proxy.pool.used}")
        pinned = proxy.pinned_titles()
        if pinned:
            for name in sorted(pinned):
                print(f"      {name:<12} {pinned[name]:>4} pages")
        else:
            print("      (nothing pinned)")
        print(f"    serve hit ratio: {ratio:.2f} "
              f"({proxy.hits} hits / {proxy.misses} misses)")
        print(f"    bytes served:  {proxy.prefix_bytes_served} prefix, "
              f"{proxy.patch_bytes_served} patch")
        print(f"    uplink in use: {proxy.uplink_used:.0f} B/s "
              f"of {proxy.config.uplink_bps:.0f}")
    if placement is not None:
        print("  placement loop")
        print(f"    plan hit ratio:  {placement.hit_ratio():.2f}")
        print(f"    prefix serves:   {placement.prefix_serves}")
        print(f"    patch serves:    {placement.patch_serves}")
        hot = placement.hot_titles()[:5]
        if hot:
            print("    hottest titles (decayed score):")
            for name, score in hot:
                print(f"      {name:<12} {score:>7.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calliope-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=list(REGISTRY) + ["list", "all"],
        help="which experiment to run ('list' prints descriptions)",
    )
    parser.add_argument(
        "--duration", type=positive_seconds, default=None,
        help="measurement window in simulated seconds (experiment default "
             "otherwise; the paper ran 6-minute windows)",
    )
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "verify":
        return verify_main(argv[1:])
    if argv and argv[0] == "recovery":
        return recovery_main(argv[1:])
    if argv and argv[0] == "edge":
        return edge_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        width = max(len(name) for name in REGISTRY)
        for name, experiment in REGISTRY.items():
            print(f"{name:<{width}}  {experiment.paper_ref}")
        return 0
    names = list(REGISTRY) if args.experiment == "all" else [args.experiment]
    for name in names:
        print(REGISTRY[name].report(args.duration))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - thin wrapper
    sys.exit(main())
