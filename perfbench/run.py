"""The aclab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sigma-d3 --seed 0 --seconds 25 --trace 0

Run from anywhere; the checkout is the parent of this directory.  The
workload's generated config goes to ``.perfbench_work/`` in the checkout,
several fresh interpreters time set-up (``import aclab.cli`` plus
``config.load``), and one more fresh interpreter runs passes of the
workload's ``aclab.cli.main`` calls for ``--seconds`` and checks every
artifact.  With ``--trace 1`` every second pass runs under the tracer of
layers.py and the per-layer metrics are printed instead of the end-to-end
ones.  Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The metric names and units are those of ``BENCHMARK.json``.  The exit code
is nonzero, with no result line, when the checkout holds no aclab sources or
a worker crashes or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 6  # set-up-only interpreters; the run's own worker is one more sample
DEADLINE_S = 170.0
TAIL_SAMPLES = 10  # a reported percentile needs this many samples beyond it


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(samples: list) -> tuple | None:
    """(percentile, value) of the highest percentile with TAIL_SAMPLES beyond it."""
    for q in (99, 95, 90, 75, 50):
        if len(samples) * (100 - q) / 100 >= TAIL_SAMPLES:
            return q, percentile(samples, q)
    return None


def _worker(args: list, env: dict, deadline: float) -> dict:
    result_path = Path(args[-1])
    subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                   cwd=ROOT, stdout=sys.stderr, check=True,
                   timeout=max(deadline - time.monotonic(), 1.0))
    return json.loads(result_path.read_text(encoding="utf-8"))


def end_to_end(result: dict, setups: list) -> dict:
    wall = statistics.median(result["walls"])
    return {
        "wall_s": wall,
        "realizations_per_s": result["realizations_per_pass"] / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _median(values: list):
    """Median; a count stays a whole number (traced passes repeat counts exactly)."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def per_layer(result: dict, setup_parts: list) -> dict:
    passes = result["layers"]
    out = {key: _median([p[key] for p in passes]) for key in passes[0]}
    out["setup.import_s"] = statistics.median(s["import_s"] for s in setup_parts)
    out["setup.config_load_s"] = statistics.median(s["config_load_s"] for s in setup_parts)
    out["trace.overhead_s"] = (statistics.median(result["traced_walls"])
                               - statistics.median(result["walls"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "aclab" / "__init__.py").is_file():
        print(f"no aclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]

    work = WORK / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config_path = workload.write_config(ROOT, work)
        src = ROOT / "src"
        env = dict(os.environ, PERFBENCH_SRC=str(src), PYTHONPATH=os.pathsep.join(
            [str(src), str(HERE)] + ([os.environ["PYTHONPATH"]]
                                     if os.environ.get("PYTHONPATH") else [])))
        setup_parts = [_worker(["setup", str(config_path), str(work / f"setup-{i}.json")],
                               env, deadline)["setup"] for i in range(SETUP_PROBES)]
        result = _worker(["run", workload.name, str(args.seed), str(args.seconds),
                          str(args.trace), str(work), str(config_path),
                          str(work / "run.json")], env, deadline)
    except subprocess.SubprocessError as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    setup_parts.append(result["setup"])
    setups = [s["import_s"] + s["config_load_s"] for s in setup_parts]
    values = (per_layer(result, setup_parts) if args.trace
              else end_to_end(result, setups))
    env_record = dict(result["env"], git_commit=_git_commit(ROOT))
    attempted, failed = result["attempted"], result["failed"]

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("why      " + next(w["why"] for w in spec["workloads"]
                                 if w["name"] == workload.name))
    print("env      " + json.dumps(env_record, sort_keys=True))
    walls = result["traced_walls"] if args.trace else result["walls"]
    q = tail(walls)
    print(f"passes   {len(walls)} {'traced' if args.trace else 'untraced'}; wall_s "
          f"median {statistics.median(walls):.4f} s, "
          + (f"p{q[0]} {q[1]:.4f} s" if q else
             f"max {max(walls):.4f} s (no percentile has {TAIL_SAMPLES} passes beyond it)")
          + "; each " + " ".join(f"{w:.3f}" for w in walls))
    print(f"setup    {len(setups)} fresh interpreters, "
          f"min {min(setups):.4f} s, max {max(setups):.4f} s")
    for metric in listed:
        print(f"{metric['name']:40s} {values[metric['name']]:>16.6g} {metric['unit']}")
    print(f"{'failed_fraction':40s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} calls)")
    for problem in result["problems"]:
        print(f"problem  {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
