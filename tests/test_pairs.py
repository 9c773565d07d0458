"""The statistics of ``benchmarks/pairs.py`` on fixed inputs."""

from __future__ import annotations

import pytest

from benchmarks.pairs import Side, judge, report

BASE = [10.0, 11.0, 10.5, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.6]


def test_side_takes_inclusive_quartiles():
    side = Side.of([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (side.q1, side.median, side.q3) == (2.0, 3.0, 4.0)
    assert side.spread == 2.0


def test_clear_gain_on_every_pair():
    change = [v * 1.25 for v in BASE]
    verdict = judge(BASE, change)
    assert verdict.wins == 10 and verdict.needed == 9
    assert verdict.ratios == pytest.approx([1.25] * 10)
    assert verdict.base.median == pytest.approx(10.3)
    assert verdict.base.spread == pytest.approx(10.575 - 10.025)
    assert verdict.gain


def test_ties_count_for_neither_side():
    change = list(BASE)
    change[0] = 20.0
    verdict = judge(BASE, change)
    assert verdict.wins == 1
    assert not verdict.gain


def test_eight_wins_of_ten_claim_nothing():
    change = [v * 1.3 for v in BASE]
    change[3] = BASE[3] - 1.0
    change[7] = BASE[7]
    verdict = judge(BASE, change)
    assert verdict.wins == 8
    assert not verdict.gain


def test_median_inside_the_base_spread_claims_nothing():
    """Every pair won, by less than the base's interquartile distance."""
    change = [v + 0.1 for v in BASE]
    verdict = judge(BASE, change)
    assert verdict.wins == 10
    assert not verdict.gain


def test_pairs_must_be_complete():
    with pytest.raises(ValueError):
        judge(BASE, BASE[:-1])


def test_report_names_the_verdict():
    text = report(judge(BASE, [v * 1.25 for v in BASE]))
    assert "wins: 10/10 (a gain needs 9)" in text
    assert text.splitlines()[-1] == "verdict: gain"
