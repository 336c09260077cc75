"""Result persistence: CSV for columnar data, JSON sidecars for metadata.

Floats are written with 17 significant digits (round-trip exact for float64).
Output files are write-once: a command never overwrites an existing artifact.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


def fmt(value) -> str:
    return f"{float(value):.17g}"


def ensure_new(path: Path) -> Path:
    path = Path(path)
    if path.exists():
        raise FileExistsError(f"refusing to overwrite existing output {path}")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_json(path, payload: dict):
    path = ensure_new(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_csv(path, header: list, rows):
    path = ensure_new(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def measure_header(config_dict: dict, kind: str, **extra) -> dict:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": config_dict,
    }
    payload.update(extra)
    return payload


def write_measure_csv(path, bin_edges: np.ndarray, mass: np.ndarray,
                      stderr: np.ndarray):
    """Columns: bin_left, bin_right, mass, stderr."""
    rows = [
        (fmt(bin_edges[i]), fmt(bin_edges[i + 1]), fmt(mass[i]), fmt(stderr[i]))
        for i in range(len(mass))
    ]
    _write_csv(path, ["bin_left", "bin_right", "mass", "stderr"], rows)


def write_sweep_csv(path, table):
    """One row per grid point with every scalar summary column."""
    if not table.rows:
        raise ValueError("sweep table has no rows")
    header = list(table.rows[0].keys())
    rows = []
    for row in table.rows:
        rows.append([fmt(row[key]) if isinstance(row[key], float) else row[key]
                     for key in header])
    _write_csv(path, header, rows)


def write_trace_csv(path, trace):
    """Columns: t, field, current, running_work."""
    columns = (trace.times, trace.field, trace.current, trace.running_work())
    path = ensure_new(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write("t,field,current,running_work\r\n")  # csv.writer's dialect
        handle.writelines("%.17g,%.17g,%.17g,%.17g\r\n" % row
                          for row in zip(*(column.tolist() for column in columns)))
