"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 perfbench/calibrate.py run --workloads absorb-d1 --seeds 0 1 2 3 4 \
        --out runs.jsonl [--trace 1]
    python3 perfbench/calibrate.py summary runs.jsonl [second-set.jsonl]
    python3 perfbench/calibrate.py reference
    python3 perfbench/calibrate.py baseline untraced.jsonl traced.jsonl

``run`` calls run.py once per workload and seed, with ``run_seconds`` from
BENCHMARK.json, and appends each result line to ``--out`` as JSON.
``summary`` prints, per workload and metric, the median and quartiles
(``statistics.quantiles(n=4)``) of the runs, the spread (q3 - q1) / median
next to the metric's bound, and, given a second set, how far its median
moved from the first.  End-to-end metrics are checked against their bound;
``setup_s`` is only checked for drift between the two sets.  ``reference``
runs every workload's calls once per seed index at workload seed 0 and
rewrites reference.json with their key scalars; do that only when a change
is meant to alter the program's results.  ``baseline`` rewrites the measured
part of baseline.json from one untraced and one traced set, and keeps its
hand-written notes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workloads, seeds, trace, out: Path):
    with out.open("a", encoding="utf-8") as handle:
        for workload in workloads:
            for seed in seeds:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                     "--trace", str(trace)],
                    capture_output=True, text=True, check=True, timeout=200)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                handle.write(json.dumps({"workload": workload, "seed": seed,
                                         "trace": trace, "result": result}) + "\n")
                handle.flush()
                wall = result["metrics"].get("wall_s", {}).get("value")
                print(f"{workload} seed {seed}: correct {result['correct']} "
                      f"wall_s {wall}", flush=True)


def reference(path: Path):
    sys.path.insert(0, str(ROOT / "src"))
    from aclab import cli
    from workloads import WORKLOADS, check_call

    stored = {}
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for workload in WORKLOADS.values():
            config_path = workload.write_config(ROOT, Path(tmp))
            stored[workload.name] = {}
            for index in range(workload.seed_cycle):
                out = Path(tmp) / f"{workload.name}-{index}"
                scalars = {}
                for argv in workload.calls(config_path, out, 0, index):
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(argv)
                    failures, found = check_call(argv, out, code)
                    if failures:
                        raise SystemExit(f"{workload.name}: {failures}")
                    scalars.update(found)
                stored[workload.name][str(index)] = scalars
    with contextlib.suppress(OSError):
        work.rmdir()
    path.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load(path: Path) -> dict:
    runs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        runs.setdefault((record["workload"], record["trace"]), []).append(record["result"])
    return runs


def stats(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def summary(first: Path, second: Path | None) -> bool:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    sets = [_load(first)] + ([_load(second)] if second else [])
    ok = True
    for (workload, trace), results in sorted(sets[0].items()):
        if not all(r["correct"] for r in results):
            ok = False
            print(f"{workload}: incorrect runs present")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload} trace {trace}: {len(results)} runs, failed_fraction "
              f"{failed / attempted:g} ({failed} of {attempted} calls)")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2 or statistics.median(values) == 0:
                print(f"  {name:40s} median {statistics.median(values):.6g}")
                continue
            median, q1, q3, spread = stats(values)
            line = (f"  {name:40s} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                    f"spread {spread:.4f}")
            bound = bounds.get(name) if not trace else None
            if bound is not None:
                line += f" bound {bound} ({'ok' if spread <= bound / 3 else 'WIDE'})"
                if name != "setup_s" and spread > bound:
                    ok = False
            if len(sets) > 1 and (workload, trace) in sets[1]:
                other = statistics.median(
                    r["metrics"][name]["value"] for r in sets[1][(workload, trace)])
                better = next((m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
                               if m["name"] == name), "lower")
                worse = (other - median) / median * (1 if better == "lower" else -1)
                line += f" second-set worse by {worse:+.4f}"
                if bound is not None and worse > bound:
                    ok = False
            print(line)
    return ok


def baseline(untraced: Path, traced: Path, path: Path):
    from layers import EXACT_COUNTS
    from workloads import WORKLOADS

    plain, layered = _load(untraced), _load(traced)
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    measured = {}
    for name in WORKLOADS:
        results = plain[(name, 0)]
        end = {}
        for metric in SPEC["end_to_end"]:
            median, q1, q3, spread = stats(
                [r["metrics"][metric["name"]]["value"] for r in results])
            end[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                   "spread": spread, "bound": metric["bound"]}
        runs = layered[(name, 1)]
        layer = {m["name"]: statistics.median(r["metrics"][m["name"]]["value"]
                                              for r in runs)
                 for m in SPEC["per_layer"]}
        counts = {key: sorted({r["metrics"][key]["value"] for r in runs})
                  for key in EXACT_COUNTS}
        measured[name] = {
            "why": next(w["why"] for w in SPEC["workloads"] if w["name"] == name),
            "untraced_runs": len(results),
            "traced_runs": len(runs),
            "end_to_end": end,
            "tracing_overhead_s": layer["trace.overhead_s"],
            "exact_counts": {key: values[0] for key, values in counts.items()},
            "exact_counts_repeat": all(len(v) == 1 for v in counts.values()),
            "per_layer_median": layer,
        }
    payload = {"notes": old.get("notes", {}), "measured": measured}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--workloads", nargs="+", required=True)
    p_run.add_argument("--seeds", nargs="+", type=int, required=True)
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_run.add_argument("--out", type=Path, required=True)
    p_sum = sub.add_parser("summary")
    p_sum.add_argument("first", type=Path)
    p_sum.add_argument("second", type=Path, nargs="?")
    sub.add_parser("reference")
    p_base = sub.add_parser("baseline")
    p_base.add_argument("untraced", type=Path)
    p_base.add_argument("traced", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "run":
        run(args.workloads, args.seeds, args.trace, args.out)
        return 0
    if args.mode == "reference":
        reference(HERE / "reference.json")
        return 0
    if args.mode == "baseline":
        baseline(args.untraced, args.traced, HERE / "baseline.json")
        return 0
    return 0 if summary(args.first, args.second) else 1


if __name__ == "__main__":
    sys.exit(main())
