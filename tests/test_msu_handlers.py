"""The MSU's Coordinator-message table: who owns which kind, and the seam.

``Msu.handlers`` maps each Coordinator -> MSU message class to the one
handler that serves it.  The core installs the unicast kinds; the MSU
sides of multicast, live TV and the page cache install theirs.  These
tests pin that ownership and show that a message kind defined outside
``src/`` rides the same dispatch, in arrival order.  The same parts are
listed in ``Msu.parts``, which the MSU's lifecycle paths walk.
"""

import ast
import dataclasses
import inspect
import textwrap

from repro.cache.manager import CacheConfig
from repro.core.cluster import ClusterConfig, msu_parts
from repro.core.msu.msu import Msu
from repro.core.msu.parts import MsuPart
from repro.hardware.params import MachineParams
from repro.media import MpegEncoder, packetize_cbr
from repro.net import messages as m
from repro.net.network import ControlChannel, Network
from repro.sim import Simulator
from repro.storage import SMALL_PAGES
from repro.units import MPEG1_RATE


#: Every Coordinator -> MSU message class and the part that serves it.
OWNERS = {
    m.ReportState: "core",
    m.ScheduleRead: "core",
    m.ResumePlay: "core",
    m.ScheduleRecord: "core",
    m.DeleteFile: "core",
    m.ChannelCreate: "multicast_part",
    m.ChannelSubscribe: "multicast_part",
    m.LiveOpen: "live_part",
    m.LiveStop: "live_part",
    m.PinPrefix: "cache_part",
}


def build_msu(sim, cache=True):
    return Msu(
        sim, "m0", Network(sim, "delivery"),
        machine_params=MachineParams(name="m0", disks_per_hba=(2,)),
        ibtree_config=SMALL_PAGES,
        parts=msu_parts(ClusterConfig(cache=CacheConfig() if cache else None)),
    )


def owner_of(msu, handler):
    """``"core"``, or the name of the MSU attribute holding the part."""
    part = handler.__self__
    if part is msu:
        return "core"
    assert any(part is installed for installed in msu.parts)
    (name,) = [attr for attr, value in vars(msu).items() if value is part]
    return name


def message_classes():
    return [
        cls for _name, cls in inspect.getmembers(m, inspect.isclass)
        if cls.__module__ == m.__name__ and dataclasses.is_dataclass(cls)
    ]


class TestOwnership:
    def test_every_msu_bound_kind_is_owned_once_on_an_all_on_msu(self):
        msu = build_msu(Simulator())
        owners = {cls: owner_of(msu, h) for cls, h in msu.handlers.items()}
        assert owners == OWNERS

    def test_no_other_message_class_has_a_handler(self):
        msu = build_msu(Simulator())
        others = set(message_classes()) - set(OWNERS)
        assert others  # the messages module defines far more kinds
        assert not others & set(msu.handlers)

    def test_a_cacheless_msu_only_lacks_pin_prefix(self):
        msu = build_msu(Simulator(), cache=False)
        owners = {cls: owner_of(msu, h) for cls, h in msu.handlers.items()}
        expected = {k: v for k, v in OWNERS.items() if k is not m.PinPrefix}
        assert owners == expected

    def test_a_cacheless_msu_drops_pin_prefix(self):
        sim = Simulator()
        msu = build_msu(sim, cache=False)
        channel = ControlChannel(sim, "coord", "m0")
        msu.attach_coordinator(channel)
        replies = []

        def coordinator():
            while True:
                msg = yield channel.recv("coord")
                replies.append(type(msg))

        sim.process(coordinator(), name="coord")
        channel.send("coord", m.PinPrefix("movie", msu.disk_ids()[0], 4))
        channel.send("coord", m.ReportState())
        sim.run(until=0.1)
        # The control loop survives the unowned kind and answers the next.
        assert replies == [m.MsuHello, m.StateReport]


@dataclasses.dataclass(frozen=True)
class Probe:
    """A message kind no part of ``src/`` knows about."""

    label: str


class TestSeam:
    def test_an_installed_kind_runs_in_arrival_order_with_core_kinds(self):
        sim = Simulator()
        msu = build_msu(sim)
        disk = msu.disk_ids()[0]
        packets = packetize_cbr(MpegEncoder(seed=1).bitstream(5.0), MPEG1_RATE, 1024)
        msu.admin_load(disk, "movie", "mpeg1", packets)
        log = []
        msu.handlers[Probe] = lambda msg: log.append(
            (sim.now, msg.label, sorted(msu.groups))
        )
        report = msu.handlers[m.ReportState]
        msu.handlers[m.ReportState] = lambda msg: (
            log.append((sim.now, "report", sorted(msu.groups))), report(msg)
        )
        channel = ControlChannel(sim, "coord", "m0")
        msu.attach_coordinator(channel)

        def coordinator():
            yield sim.timeout(0.01)
            channel.send("coord", m.ScheduleRead(
                7, 70, "movie", disk, "raw", MPEG1_RATE, False,
                ("client", 5000), "client",
            ))
            channel.send("coord", Probe("after-read"))
            channel.send("coord", m.ReportState())
            channel.send("coord", Probe("after-report"))

        sim.process(coordinator(), name="coord")
        sim.run(until=0.1)
        (arrival,) = {t for t, _label, _groups in log}
        assert arrival > 0.01
        assert [(label, groups) for _t, label, groups in log] == [
            ("after-read", [7]), ("report", [7]), ("after-report", [7]),
        ]
        assert msu.streams_served == 1


#: The MSU paths that walk ``Msu.parts`` and name no part.
WALKERS = ("attach_coordinator", "_heartbeat_loop", "state_report",
           "_delete_file", "crash", "hang", "_halt", "reboot")
PART_NAMES = {"multicast_part", "live_part", "cache_part", "cache"}


class Recorder(MsuPart):
    """A part no module of ``src/`` knows about."""

    def __init__(self):
        self.calls = []

    def attached(self, channel):
        self.calls.append("attached")

    def halt(self, cause):
        self.calls.append(f"halt:{cause}")

    def file_deleted(self, disk_id, content_name):
        self.calls.append(f"deleted:{content_name}")


class TestParts:
    def test_parts_are_the_configured_subsystems(self):
        msu = build_msu(Simulator())
        assert msu.parts == [msu.multicast_part, msu.live_part, msu.cache_part]
        bare = build_msu(Simulator(), cache=False)
        assert bare.parts == [bare.multicast_part, bare.live_part]

    def test_lifecycle_paths_name_no_part(self):
        tree = ast.parse(textwrap.dedent(inspect.getsource(Msu)))
        bodies = {
            node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in WALKERS
        }
        assert set(bodies) == set(WALKERS)
        for name, body in bodies.items():
            named = {
                node.attr for node in ast.walk(body)
                if isinstance(node, ast.Attribute)
            }
            assert not named & PART_NAMES, name

    def test_an_added_part_is_attached_told_of_deletes_and_halted(self):
        sim = Simulator()
        msu = build_msu(sim)
        disk = msu.disk_ids()[0]
        packets = packetize_cbr(MpegEncoder(seed=1).bitstream(2.0), MPEG1_RATE, 1024)
        msu.admin_load(disk, "movie", "mpeg1", packets)
        part = Recorder()
        msu.parts.append(part)
        msu.attach_coordinator(ControlChannel(sim, "coord", "m0"))
        msu.handlers[m.DeleteFile](m.DeleteFile("movie", disk))
        msu.hang()
        msu.reboot()
        assert part.calls == [
            "attached", "deleted:movie", "halt:hang", "halt:reboot",
        ]
