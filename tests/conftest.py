"""Shared builders for scan snapshots and hypothesis strategies."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from swarmsim.core import DriveLimits, ScanSnapshot

settings.register_profile(
    "swarmsim",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("swarmsim")

TB3_RANGE_MIN = 0.12
TB3_RANGE_MAX = 3.5


def make_scan(
    readings: dict[int, float] | None = None,
    beam_count: int = 360,
    range_min: float = TB3_RANGE_MIN,
    range_max: float = TB3_RANGE_MAX,
    fill: float = math.inf,
) -> ScanSnapshot:
    """360-degree scan with every beam invalid except the given {index: range}."""
    ranges = np.full(beam_count, fill, dtype=float)
    for idx, value in (readings or {}).items():
        ranges[idx] = value
    return ScanSnapshot(
        ranges=ranges,
        angle_min=0.0,
        angle_increment=2.0 * math.pi / beam_count,
        range_min=range_min,
        range_max=range_max,
    )


def scan_from_array(ranges, range_min=TB3_RANGE_MIN, range_max=TB3_RANGE_MAX):
    ranges = np.asarray(ranges, dtype=float)
    return ScanSnapshot(
        ranges=ranges,
        angle_min=0.0,
        angle_increment=2.0 * math.pi / len(ranges),
        range_min=range_min,
        range_max=range_max,
    )


@pytest.fixture
def tb3_limits() -> DriveLimits:
    return DriveLimits(max_linear=0.26, max_angular=1.82)


# Ranges mix valid readings, below-floor returns, and out-of-range markers.
range_values = st.one_of(
    st.floats(min_value=0.125, max_value=3.4),
    st.floats(min_value=0.0, max_value=0.119),
    st.just(math.inf),
    st.floats(min_value=3.6, max_value=10.0),
)


@st.composite
def scans(draw, min_beams=4, max_beams=72):
    beam_count = draw(st.integers(min_beams, max_beams))
    values = draw(
        st.lists(range_values, min_size=beam_count, max_size=beam_count)
    )
    return scan_from_array(values)
