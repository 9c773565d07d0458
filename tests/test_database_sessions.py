"""Direct tests of the admin database and session tables."""

import pytest

from repro.core.database import AdminDatabase, ContentEntry, Customer
from repro.core.sessions import DisplayPort, SessionTable, match_ports
from repro.errors import TypeMismatchError, UnknownContentError, UnknownPortError
from repro.media import ContentTypeRegistry, DEFAULT_TYPES


class TestAdminDatabase:
    def test_customers(self):
        db = AdminDatabase()
        db.add_customer("alice")
        db.add_customer("root", admin=True)
        assert db.authenticate("alice").admin is False
        assert db.authenticate("root").admin is True
        assert db.authenticate("ghost") is None

    def test_content_table(self):
        db = AdminDatabase()
        db.add_content(ContentEntry("movie", "mpeg1", "msu0", "d0"))
        assert db.content("movie").type_name == "mpeg1"
        with pytest.raises(UnknownContentError):
            db.content("ghost")

    def test_remove_content(self):
        db = AdminDatabase()
        db.add_content(ContentEntry("movie", "mpeg1"))
        entry = db.remove_content("movie")
        assert entry.name == "movie"
        with pytest.raises(UnknownContentError):
            db.content("movie")

    def test_listing_sorted(self):
        db = AdminDatabase()
        for name in ("zebra", "alpha"):
            db.add_content(ContentEntry(name, "mpeg1"))
        assert db.listing() == [("alpha", "mpeg1"), ("zebra", "mpeg1")]

    def test_msu_registration_and_down(self):
        db = AdminDatabase()
        db.register_msu("msu0", [("d0", 100), ("d1", 100)])
        assert db.msus["msu0"].available
        assert len(db.available_msus()) == 1
        db.mark_msu_down("msu0")
        assert db.available_msus() == []

    def test_reregistration_updates_free_blocks(self):
        db = AdminDatabase()
        db.register_msu("msu0", [("d0", 100)])
        db.disk("msu0", "d0").bandwidth_used = 1.0
        db.mark_msu_down("msu0")
        db.register_msu("msu0", [("d0", 40)])
        disk = db.disk("msu0", "d0")
        assert disk.free_blocks == 40
        assert db.msus["msu0"].available

    def test_mark_unknown_msu_down_is_noop(self):
        AdminDatabase().mark_msu_down("ghost")


class TestSessionTable:
    def _session(self):
        table = SessionTable()
        return table, table.open(Customer("alice"), "alice-pc")

    def test_open_assigns_unique_ids(self):
        table = SessionTable()
        a = table.open(Customer("x"), "h1")
        b = table.open(Customer("y"), "h2")
        assert a.session_id != b.session_id
        assert len(table) == 2

    def test_get_and_close(self):
        table, session = self._session()
        assert table.get(session.session_id) is session
        table.close(session.session_id)
        with pytest.raises(UnknownPortError):
            table.get(session.session_id)

    def test_close_unknown_session_is_noop(self):
        table = SessionTable()
        assert table.close(99) is None

    def test_port_registration(self):
        _, session = self._session()
        session.register_port(DisplayPort("tv", "mpeg1", address=("h", 1)))
        assert session.port("tv").type_name == "mpeg1"
        session.unregister_port("tv")
        with pytest.raises(UnknownPortError):
            session.port("tv")

    def test_atomic_ports_resolution(self):
        _, session = self._session()
        types = ContentTypeRegistry(DEFAULT_TYPES)
        session.register_port(DisplayPort("v", "rtp-video", address=("h", 1)))
        session.register_port(DisplayPort("a", "vat-audio", address=("h", 3)))
        session.register_port(
            DisplayPort("sem", "seminar", component_ports=("v", "a"))
        )
        members = session.atomic_ports_for("sem", types)
        assert sorted(p.type_name for p in members) == ["rtp-video", "vat-audio"]

    def test_nested_composites_rejected(self):
        _, session = self._session()
        types = ContentTypeRegistry(DEFAULT_TYPES)
        session.register_port(DisplayPort("v", "rtp-video", address=("h", 1)))
        session.register_port(
            DisplayPort("inner", "seminar", component_ports=("v",))
        )
        session.register_port(
            DisplayPort("outer", "seminar", component_ports=("inner",))
        )
        with pytest.raises(TypeMismatchError):
            session.atomic_ports_for("outer", types)

    def test_match_ports_pairs_by_type_using_each_port_once(self):
        v1 = DisplayPort("v1", "rtp-video", address=("h", 1))
        a = DisplayPort("a", "vat-audio", address=("h", 3))
        v2 = DisplayPort("v2", "rtp-video", address=("h", 5))
        ports = [v1, a, v2]
        matched = match_ports(ports, ["vat-audio", "rtp-video", "rtp-video"])
        assert matched == [a, v1, v2]
        assert ports == [v1, a, v2]  # the caller's list is not consumed
        with pytest.raises(TypeMismatchError, match="'vat-audio'"):
            match_ports(ports, ["vat-audio", "vat-audio"])
