"""Tests for unit conversion helpers."""

from __future__ import annotations

import pytest

from repro import units


def test_rate_conversions_roundtrip():
    assert units.mbps(1.5) == 1_500_000


def test_minutes():
    assert units.minutes(16) == 960.0


@pytest.mark.parametrize(
    "size, text",
    [
        (500, "500 B"),
        (999, "999 B"),
        (units.KB, "1.0 kB"),
        (10_000, "10.0 kB"),
        (units.MB - 1, "1000.0 kB"),
        (units.MB, "1.00 MB"),
        (units.GB, "1.00 GB"),
        (2_000_000_000, "2.00 GB"),
    ],
)
def test_format_bytes_scales(size, text):
    # The unit switches exactly at each decimal multiple.
    assert units.format_bytes(size) == text


@pytest.mark.parametrize(
    "rate, text",
    [
        (82, "82 b/s"),
        (999, "999 b/s"),
        (1000, "1.0 kb/s"),
        (6000, "6.0 kb/s"),
        (units.mbps(1), "1.00 Mb/s"),
        (26_490_000, "26.49 Mb/s"),
    ],
)
def test_format_rate_scales(rate, text):
    assert units.format_rate(rate) == text


@pytest.mark.parametrize(
    "seconds, text",
    [
        (0.3, "300 ms"),
        (1.0, "1.00 s"),
        (4.25, "4.25 s"),
        (59.99, "59.99 s"),
        (75, "1 min 15 s"),
        (units.minutes(16), "16 min 0 s"),
    ],
)
def test_format_duration_scales(seconds, text):
    assert units.format_duration(seconds) == text
