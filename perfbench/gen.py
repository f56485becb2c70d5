"""Seeded benchmark inputs: a STATS19-layout accident CSV plus a run config.

Sites sit at the centres of distinct 150 m grid cells, laid out the way the
program lays its grid (local equirectangular projection about the region's
bbox centre), and every site gets at least one accident. Jitter stays within
54 m of the site, well inside the 75 m cell half-width, so the graph stage
yields exactly one node per site. Weekly counts are Poisson with a yearly
season; categorical codes follow the same winter tilt as the package's demo
fixture. Everything derives from one seed: the same seed writes
byte-identical files.

The column names and layout are written out here rather than imported from
the package, so the inputs cannot change when the program under test does.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEADER = [
    "Accident_Index",
    "Date",
    "Longitude",
    "Latitude",
    "Accident_Severity",
    "Number_of_Casualties",
    "Road_Type",
    "Speed_limit",
    "Junction_Control",
    "Pedestrian_Crossing-Human_Control",
    "Pedestrian_Crossing-Physical_Facilities",
    "Light_Conditions",
    "Weather_Conditions",
    "Road_Surface_Conditions",
]
EARTH_RADIUS_M = 6_371_000.0
CELL_M = 150.0
JITTER_M = 18.0  # clipped at 3 sigma = 54 m
START = dt.date(2016, 1, 4)  # a Monday
CENTER_LON, CENTER_LAT = -1.8904, 52.4862
# (road_type code, speed limit, junction code, facility code) per site class
SITE_CLASSES = np.array(
    [(6, 30, 4, 0), (3, 40, 2, 5), (1, 30, 2, 4), (2, 20, 4, 1), (7, 40, 3, 0)]
)
# the package's fixture model: d=16, 2 heads, batch 16
MODEL = {
    "d": 16, "heads": 2, "layers": 1, "t_in": 12, "t_out": 12,
    "conv_kernel": 3, "dropout": 0.1, "spatial_attention": True,
}


@dataclass(frozen=True)
class Size:
    sites: int            # graph nodes the inputs must yield
    grid: int             # sites are drawn from a grid x grid block of cells
    rows: int             # expected accident rows (Poisson total)
    weeks: int = 156
    epochs_main: int = 2
    epochs_finetune: int = 1


def _rates(rng, size: Size) -> np.ndarray:
    """(weeks, sites) Poisson rates with a yearly season and a few hotspots."""
    base = rng.uniform(0.4, 1.6, size.sites)
    base[rng.choice(size.sites, max(1, size.sites // 8), replace=False)] += 1.5
    phase = rng.uniform(-0.3, 0.3, size.sites)
    week = np.arange(size.weeks)[:, None] / 52.0
    season = 1.0 + 0.65 * np.sin(2.0 * np.pi * (week + phase))
    rates = np.maximum(0.02, base * season)
    return rates * (size.rows / rates.sum())


def _choice(rng, values, p, n):
    return np.asarray(values)[rng.choice(len(values), size=n, p=p)]


def generate(seed: int, size: Size) -> tuple[list[str], dict]:
    """CSV lines (header first) and facts the benchmark checks outputs against."""
    rng = np.random.default_rng(seed)
    half = size.grid // 2
    cells = rng.choice(size.grid * size.grid, size.sites, replace=False)
    cx, cy = cells // size.grid - half, cells % size.grid - half

    counts = rng.poisson(_rates(rng, size))
    empty = np.flatnonzero(counts.sum(axis=0) == 0)
    counts[rng.integers(0, size.weeks, empty.size), empty] = 1
    flat = counts.ravel()
    site = np.repeat(np.tile(np.arange(size.sites), size.weeks), flat)
    week = np.repeat(np.repeat(np.arange(size.weeks), size.sites), flat)
    n = site.size

    winter = 0.5 * (1.0 + np.cos(2.0 * np.pi * week / 52.0))
    day = week * 7 + rng.integers(0, 7, n)
    severity = _choice(rng, [1, 2, 3], [0.015, 0.135, 0.85], n)
    casualties = 1 + rng.poisson(np.where(severity == 3, 0.4, 1.2))
    dark = rng.random(n) < 0.25 + 0.4 * winter
    light = np.where(dark, _choice(rng, [4, 5, 6], [0.8, 0.1, 0.1], n), 1)
    wet = rng.random(n) < 0.15 + 0.45 * winter
    icy = wet & (rng.random(n) < 0.3 * winter)
    weather = np.where(
        icy, _choice(rng, [3, 6], None, n),
        np.where(wet, _choice(rng, [2, 5, 7], None, n), _choice(rng, [1, 4], [0.9, 0.1], n)),
    )
    surface = np.where(icy, _choice(rng, [3, 4], None, n), np.where(wet, 2, 1))
    human = _choice(rng, [0, 1, 2], [0.9, 0.05, 0.05], n)
    jitter = np.clip(rng.normal(0.0, JITTER_M, (n, 2)), -3 * JITTER_M, 3 * JITTER_M)
    road, speed, junction, facility = SITE_CLASSES[site % len(SITE_CLASSES)].T

    bbox = _bbox(size.grid)
    lon0, lat0 = (bbox[0] + bbox[2]) / 2.0, (bbox[1] + bbox[3]) / 2.0
    x = (cx[site] + 0.5) * CELL_M + jitter[:, 0]
    y = (cy[site] + 0.5) * CELL_M + jitter[:, 1]
    lon = lon0 + np.degrees(x / (EARTH_RADIUS_M * math.cos(math.radians(lat0))))
    lat = lat0 + np.degrees(y / EARTH_RADIUS_M)

    days = [(START + dt.timedelta(days=d)).strftime("%d/%m/%Y") for d in range(size.weeks * 7)]
    columns = [
        [f"BM{seed % 1000:03d}{i:08d}" for i in range(n)],
        [days[d] for d in day.tolist()],
        [f"{v:.6f}" for v in lon.tolist()],
        [f"{v:.6f}" for v in lat.tolist()],
        *(
            [str(v) for v in col.tolist()]
            for col in (severity, casualties, road, speed, junction, human, facility,
                        light, weather, surface)
        ),
    ]
    lines = [",".join(HEADER)] + [",".join(row) for row in zip(*columns)]
    return lines, {"rows": n, "nodes": size.sites, "weeks": size.weeks, "bbox": bbox}


def _bbox(grid: int) -> list[float]:
    """Region box two cells wider than the site block on every side."""
    reach = (grid // 2 + 3) * CELL_M
    dlat = math.degrees(reach / EARTH_RADIUS_M)
    dlon = math.degrees(reach / (EARTH_RADIUS_M * math.cos(math.radians(CENTER_LAT))))
    return [
        round(CENTER_LON - dlon, 6), round(CENTER_LAT - dlat, 6),
        round(CENTER_LON + dlon, 6), round(CENTER_LAT + dlat, 6),
    ]


def run_config(size: Size, bbox: list[float], csv_name: str, out_dir: str) -> dict:
    end = START + dt.timedelta(weeks=size.weeks) - dt.timedelta(days=1)
    return {
        "data_csv": csv_name,
        "out_dir": out_dir,
        "region": {"name": "bench", "bbox": bbox, "period": [START.isoformat(), end.isoformat()]},
        "schema": {},
        "graph": {"cell_size_m": CELL_M, "k": 4, "sigma_m": None},
        "diffusion": {"preset": "Differentiated_B"},
        "model": MODEL,
        "train": {
            "epochs_main": size.epochs_main, "epochs_finetune": size.epochs_finetune,
            "lr_main": 0.003, "lr_finetune": None, "beta1": 0.9, "beta2": 0.999,
            "eps": 1e-8, "seed": 0, "batch": 16,
        },
        "seed": 0,
        "weight_tables": None,
        "mape_eps": 1e-8,
        "split_fractions": [0.6, 0.2, 0.2],
    }


def write_inputs(directory: Path, seed: int, size: Size) -> dict:
    """Write accidents.csv and run.json into `directory`; returns the facts."""
    directory.mkdir(parents=True, exist_ok=True)
    lines, facts = generate(seed, size)
    (directory / "accidents.csv").write_text("\n".join(lines) + "\n")
    config = run_config(size, facts["bbox"], "accidents.csv", "out")
    (directory / "run.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return facts
