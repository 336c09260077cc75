import csv

import numpy as np

from aclab.io import fmt, write_trace_csv
from aclab.response import ResponseTrace


def test_trace_csv_bytes_match_the_csv_writer_route(tmp_path):
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, 0.1, 1 / 3,
               -123456789012345678.0, 1e-5, np.inf, -np.inf]
    rng = np.random.default_rng(3)
    columns = [np.concatenate([np.roll(special, k),
                               rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, 50)])
               for k in range(4)]
    trace = ResponseTrace(times=columns[0], field=columns[1], current=columns[2],
                          energy=columns[3], alpha=0.1, dt=0.01, trace_drift=0.0,
                          spectrum_drift=0.0)
    write_trace_csv(tmp_path / "trace.csv", trace)
    with (tmp_path / "reference.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "field", "current", "running_work"])
        writer.writerows(zip(*([fmt(v) for v in column]
                               for column in [*columns[:3], trace.running_work()])))
    assert ((tmp_path / "trace.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())
