"""The MSU's ``StateReport`` over a chaos run matches the committed samples.

``tests/fixtures/recovery_v1/state_reports.json`` holds every MSU's
``state_report()`` sampled every 0.5 s from 0.5 s to 9.0 s of the all-on
chaos cluster that writes the v1 journal fixture (multicast, cache,
failover, live TV, one edge, two admission shards; seed 10).  The samples
cover active streams, multicast channels, live channels, pinned prefixes
and stored file sizes.  A change to how the MSU installs, tears down or reports its
streams, channels, rings or pins that alters what a restarted Coordinator
would be told fails here.  The same run's journal must also equal the
committed ``journal.json``, so a change to what the Coordinator logs
fails here too.  ``tests/fixtures/recovery_v1/generate.py`` regenerates
both files.
"""

import importlib.util
import json
import pathlib

import pytest

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "recovery_v1"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "recovery_v1_generate", FIXTURE / "generate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_samples_cover_every_report_section():
    samples = json.loads((FIXTURE / "state_reports.json").read_text())
    assert [s["t"] for s in samples] == [0.5 * k for k in range(1, 19)]
    reports = [r for s in samples for r in s["reports"]]
    for section in ("streams", "channels", "live_channels", "pins", "files"):
        assert any(r[section] for r in reports), section
    assert max(len(r["streams"]) for r in reports) == 20


@pytest.fixture(scope="module")
def fresh_run():
    gen = _generator()
    store, samples = gen.run_to_crash()
    return gen, store, samples


def test_fresh_run_reports_the_committed_samples(fresh_run):
    gen, _store, samples = fresh_run
    committed = (FIXTURE / "state_reports.json").read_text()
    assert gen.state_reports_json(samples) == committed


def test_fresh_run_writes_the_committed_journal(fresh_run):
    _gen, store, _samples = fresh_run
    committed = (FIXTURE / "journal.json").read_text()
    assert store.to_json() + "\n" == committed
