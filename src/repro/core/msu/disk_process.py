"""The MSU disk process: round-robin duty-cycle scheduling (§2.2.1, §2.3.3).

One disk process per disk.  Each pass over the active streams is one duty
cycle: every playback stream missing a buffer gets one 256 KiB read slot,
and every recording stream with a completed page gets one write slot.  The
paper's MSU "services the customers for each disk in a round-robin
fashion, resulting in random seeks between disk transfers" — there is no
head scheduling here (that is the elevator experiment's job, at the
hardware layer).

With a page cache installed (the interval/prefix extension), the duty
cycle consults the cache before committing a read slot: a hit costs a
memory copy instead of a seek-plus-transfer, freeing that slot for
another stream — which is how a disk serves more concurrent viewers than
its raw bandwidth allows.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from repro.errors import OutOfSpaceError
from repro.core.msu.parts import stop
from repro.core.msu.queues import Signal
from repro.core.msu.streams import PlayStream, RecordStream
from repro.sim import Simulator
from repro.storage.filesystem import MsuFileSystem
from repro.storage.ibtree import IBTreeReader

__all__ = ["DiskProcess"]


class DiskProcess:
    """Duty-cycle scheduler for one disk's streams."""

    def __init__(
        self,
        sim: Simulator,
        fs: MsuFileSystem,
        disk_id: str,
        on_page_loaded: Optional[Callable] = None,
        on_record_drained: Optional[Callable] = None,
        on_page_written: Optional[Callable] = None,
        cache=None,
    ):
        self.sim = sim
        self.fs = fs
        self.disk_id = disk_id
        self.play_streams: List[PlayStream] = []
        self.record_streams: List[RecordStream] = []
        self.wakeup = Signal(sim, name=f"disk:{disk_id}")
        #: Called with (stream,) when a page lands in a stream buffer.
        self.on_page_loaded = on_page_loaded
        #: Called with (stream,) when a finishing recording is fully on disk.
        self.on_record_drained = on_record_drained
        #: Called with (stream,) after each recorded page lands on disk —
        #: the live subsystem's hook for ring-window reclamation.
        self.on_page_written = on_page_written
        #: Shared MSU page cache (``Msu.cache``); None reproduces the
        #: paper's no-cache MSU.
        self.cache = cache
        self.pages_read = 0  # pages that actually spent a disk slot
        self.pages_from_cache = 0  # pages served by the cache instead
        self.pages_written = 0
        self.cycles = 0
        self.start()

    def start(self) -> None:
        """Start a fresh duty cycle (construction and MSU reboot)."""
        self._proc = self.sim.process(self.run(), name=f"diskproc:{self.disk_id}")

    def halt(self, cause: str) -> None:
        """Stop the duty cycle and drop every stream (the MSU halted).

        Each stream leaves through :meth:`remove`, so the page cache
        releases its position and claims too.
        """
        stop(self._proc, cause)
        for stream in self.play_streams + self.record_streams:
            self.remove(stream)

    # -- stream management (called by the control process) --------------------

    def add_play(self, stream: PlayStream) -> None:
        """Admit a playback stream to this disk's duty cycle."""
        self.play_streams.append(stream)
        if self.cache is not None:
            # Make the stream's position visible immediately so a leader's
            # next page is already retained for it.
            self.cache.interval.observe(
                (self.disk_id, stream.handle.name),
                stream.stream_id, stream.next_page,
            )
        self.wakeup.set()

    def add_record(self, stream: RecordStream) -> None:
        """Admit a recording stream to this disk's duty cycle."""
        self.record_streams.append(stream)
        self.wakeup.set()

    def remove(self, stream) -> None:
        """Drop a stream (slot freed for others)."""
        if stream in self.play_streams:
            self.play_streams.remove(stream)
            if self.cache is not None:
                self.cache.forget_stream(stream.stream_id)
        if stream in self.record_streams:
            self.record_streams.remove(stream)

    # -- the duty cycle itself ---------------------------------------------------

    def run(self) -> Generator:
        """One read or write slot per active stream per cycle, forever."""
        while True:
            did_work = False
            for stream in list(self.play_streams):
                if not stream.wants_page():
                    continue
                epoch = stream.epoch
                page_index = stream.next_page
                stream.next_page += 1
                buf = None
                key = (self.disk_id, stream.handle.name)
                if self.cache is not None:
                    buf = self.cache.lookup(key, page_index, stream.stream_id)
                if buf is not None:
                    self.pages_from_cache += 1
                    delay = self.cache.copy_time(len(buf))
                    if delay > 0:
                        yield self.sim.sleep(delay)
                else:
                    buf = yield from self.fs.read_file_block(
                        stream.handle, page_index
                    )
                    self.pages_read += 1
                    # A stream that left while its read was in flight must
                    # not re-register as a viewer: pages would be retained
                    # for it that it never reads.
                    if self.cache is not None and stream in self.play_streams:
                        self.cache.fill(key, page_index, buf, stream.stream_id)
                records = IBTreeReader.parse_page(buf)
                stream.attach_page(epoch, page_index, records)
                did_work = True
                if self.on_page_loaded is not None:
                    self.on_page_loaded(stream)
            for stream in list(self.record_streams):
                if stream.pending_pages:
                    page = stream.pending_pages.popleft()
                    try:
                        yield from stream.handle.append_block(page)
                    except OutOfSpaceError:
                        # One stream's exhausted space must not kill the
                        # whole disk's duty cycle: truncate that recording
                        # and let the normal drain path close it out.
                        stream.abort()
                        continue
                    self.pages_written += 1
                    did_work = True
                    if self.on_page_written is not None:
                        self.on_page_written(stream)
                if stream.drained and not stream.finished:
                    stream.finished = True
                    stream.commit_root()
                    self.remove(stream)
                    if self.on_record_drained is not None:
                        self.on_record_drained(stream)
            self.cycles += 1
            if not did_work:
                yield self.wakeup.wait()
