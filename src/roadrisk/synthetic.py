"""Seeded synthetic accident dataset for tests and demos.

Thirty sites on a 6x5 grid (300 m spacing, central-London coordinates)
produce Poisson accident counts week by week for three years. The rate
carries a yearly sine so the safety channel is seasonal and forecastable;
winter weeks tilt the weather, surface and light code distributions toward
the risky categories, which gives the infrastructure and environment
channels their own seasonal texture. Everything derives from one generator
seed, so the fixture is reproducible byte for byte.
"""

from __future__ import annotations

import datetime as dt
import math
from pathlib import Path

import numpy as np

from .artifacts import write_table
from .graph import EARTH_RADIUS_M
from .ingest import DEFAULT_SCHEMA, LOGICAL_COLUMNS, RegionSpec

FIXTURE_SEED = 20120611
FIXTURE_START = dt.date(2011, 1, 3)  # a Monday, so weeks align with ISO weeks
FIXTURE_WEEKS = 156
GRID_NX, GRID_NY = 6, 5
GRID_SPACING_M = 300.0
CENTER_LON, CENTER_LAT = -0.1278, 51.5074

# (road_type code, speed limit, junction code, facility code) per site class
_SITE_CLASSES = [
    (6, 30, 4, 0),   # single carriageway, give-way
    (3, 40, 2, 5),   # dual carriageway, signals
    (1, 30, 2, 4),   # roundabout
    (2, 20, 4, 1),   # one-way street, zebra
    (7, 40, 3, 0),   # slip road, stop sign
]


def fixture_region() -> RegionSpec:
    end = FIXTURE_START + dt.timedelta(weeks=FIXTURE_WEEKS) - dt.timedelta(days=1)
    return RegionSpec(
        name="fixture-grid",
        bbox=(CENTER_LON - 0.03, CENTER_LAT - 0.02, CENTER_LON + 0.03, CENTER_LAT + 0.02),
        period=(FIXTURE_START, end),
    )


def _site_positions() -> list[tuple[float, float]]:
    # sites sit at the centers of 150 m grid cells (offset +75 m), so the
    # default node-extraction cell size maps each site to exactly one node
    positions = []
    meters_to_lat = 180.0 / math.pi / EARTH_RADIUS_M
    meters_to_lon = meters_to_lat / math.cos(math.radians(CENTER_LAT))
    for ix in range(GRID_NX):
        for iy in range(GRID_NY):
            x = (ix - (GRID_NX - 1) / 2) * GRID_SPACING_M + 75.0
            y = (iy - (GRID_NY - 1) / 2) * GRID_SPACING_M + 75.0
            positions.append((CENTER_LON + x * meters_to_lon, CENTER_LAT + y * meters_to_lat))
    return positions


def _winterness(week: int) -> float:
    """1 in midwinter, 0 in midsummer (week 0 is early January)."""
    return 0.5 * (1.0 + math.cos(2.0 * math.pi * week / 52.0))


def generate_rows(seed: int = FIXTURE_SEED) -> list[dict]:
    """All accident rows, as dicts keyed by the physical column names."""
    rng = np.random.default_rng(seed)
    sites = _site_positions()
    base_rates = rng.uniform(0.6, 2.4, len(sites))
    base_rates[rng.choice(len(sites), 4, replace=False)] += 2.0  # a few hotspots
    phases = rng.uniform(-0.3, 0.3, len(sites))
    jitter_scale = 18.0  # meters; clipped at 3 sigma = 54 m, inside the 75 m cell half-width

    meters_to_lat = 180.0 / math.pi / EARTH_RADIUS_M
    meters_to_lon = meters_to_lat / math.cos(math.radians(CENTER_LAT))
    site_xy = [
        (
            (lon - CENTER_LON) / meters_to_lon,
            (lat - CENTER_LAT) / meters_to_lat,
        )
        for lon, lat in sites
    ]

    rows = []
    points = []
    serial = 0
    for week in range(FIXTURE_WEEKS):
        season = 1.0 + 0.65 * math.sin(2.0 * math.pi * (week / 52.0))
        winter = _winterness(week)
        monday = FIXTURE_START + dt.timedelta(weeks=week)
        for s, (site_x, site_y) in enumerate(site_xy):
            rate = max(0.05, base_rates[s] * (1.0 + 0.65 * math.sin(
                2.0 * math.pi * (week / 52.0 + phases[s]) )) * season / 2.0)
            for _ in range(rng.poisson(rate)):
                serial += 1
                day = monday + dt.timedelta(days=int(rng.integers(0, 7)))
                road, speed, junction, facility = _SITE_CLASSES[s % len(_SITE_CLASSES)]
                severity = int(rng.choice([1, 2, 3], p=[0.015, 0.135, 0.85]))
                casualties = 1 + int(rng.poisson(0.4 if severity == 3 else 1.2))
                dark = rng.random() < 0.25 + 0.4 * winter
                light = int(rng.choice([4, 5, 6], p=[0.8, 0.1, 0.1])) if dark else 1
                wet = rng.random() < 0.15 + 0.45 * winter
                icy = wet and rng.random() < 0.3 * winter
                if icy:
                    weather, surface = int(rng.choice([3, 6])), int(rng.choice([3, 4]))
                elif wet:
                    weather, surface = int(rng.choice([2, 5, 7])), 2
                else:
                    weather, surface = int(rng.choice([1, 4], p=[0.9, 0.1])), 1
                dx, dy = rng.normal(0.0, jitter_scale, 2)
                dx, dy = np.clip([dx, dy], -3 * jitter_scale, 3 * jitter_scale)
                points.append((site_x + dx, site_y + dy))
                rows.append(
                    {
                        "accident_id": f"FX{serial:07d}",
                        "date": day.strftime("%d/%m/%Y"),
                        "severity": str(severity),
                        "casualties": str(casualties),
                        "road_type": str(road),
                        "speed_limit": str(speed),
                        "junction_control": str(junction),
                        "ped_human_control": str(int(rng.choice([0, 1, 2], p=[0.9, 0.05, 0.05]))),
                        "ped_physical_facility": str(facility),
                        "light": str(light),
                        "weather": str(weather),
                        "surface": str(surface),
                    }
                )

    for row, (x, y) in zip(rows, points):
        row["lon"] = f"{CENTER_LON + x * meters_to_lon:.6f}"
        row["lat"] = f"{CENTER_LAT + y * meters_to_lat:.6f}"
    return rows


def write_fixture_csv(path: str | Path, seed: int = FIXTURE_SEED) -> int:
    """Write the dataset in the standard accident-table layout; returns rows."""
    rows = generate_rows(seed)
    write_table(
        path,
        [DEFAULT_SCHEMA[c] for c in LOGICAL_COLUMNS],
        ([row[c] for c in LOGICAL_COLUMNS] for row in rows),
    )
    return len(rows)
