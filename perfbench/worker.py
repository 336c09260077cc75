"""One fresh interpreter of the benchmark, started by run.py.

    worker.py setup CONFIG RESULT
        time ``import aclab.cli`` and ``aclab.config.load(CONFIG)`` only.
    worker.py run WORKLOAD SEED SECONDS TRACE WORK CONFIG RESULT
        the same set-up, then passes of the workload's ``aclab.cli.main``
        calls until SECONDS have passed; with TRACE 1 every second pass is
        traced.  Each pass writes into its own directory under WORK, which is
        checked and then removed.

Both write one JSON object to RESULT.  Set-up is timed before anything else
is imported, so it is what a user's fresh ``aclab`` process pays.
"""

import sys
import time


def _setup(config_path: str) -> dict:
    t0 = time.perf_counter()
    import aclab.cli  # noqa: F401  (the CLI imports every layer)
    t1 = time.perf_counter()
    from aclab import config

    config.load(config_path)
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "config_load_s": t2 - t1}


def _env() -> dict:
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_build": blas.get("openblas configuration"),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _run(name, seed, seconds, trace, work, config_path) -> dict:
    import contextlib
    import io
    import json
    import resource
    import shutil
    import traceback
    from pathlib import Path

    from aclab import cli

    import layers
    from workloads import WORKLOADS, check_call, mismatches

    workload = WORKLOADS[name]
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    realizations = workload.realizations_per_pass(config)
    reference = {}
    if seed == 0:
        stored = json.loads((Path(__file__).parent / "reference.json").read_text())
        reference = stored.get(name, {})
    first_seen = {}  # seed index -> key scalars of the first pass that ran it
    walls, traced_walls, layer_passes, problems = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        out = Path(work) / f"pass-{k}"
        calls = workload.calls(Path(config_path), out, seed, k)
        tracer = layers.make_tracer() if traced else contextlib.nullcontext()
        codes = []
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            for argv in calls:
                try:
                    codes.append(cli.main(argv))
                except Exception:  # a crash is a failed call, not a dead benchmark
                    traceback.print_exc()
                    codes.append("exception")
            wall = time.perf_counter() - t0
        index = str(k % workload.seed_cycle)
        for argv, code in zip(calls, codes):
            failures, scalars = check_call(argv, out, code)
            failures += mismatches(scalars, reference.get(index, {}))
            failures += mismatches(scalars, first_seen.setdefault(index, {}))
            for key, value in scalars.items():
                first_seen[index].setdefault(key, value)
            attempted += 1
            if failures:
                failed += 1
                problems.extend(f"pass {k}: {f}" for f in failures)
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            traced_walls.append(wall)
            layer_passes.append(layers.pass_metrics(
                tracer.spans, realizations, workload.verify_realizations(config)))
        else:
            walls.append(wall)
        k += 1
        if time.perf_counter() - start >= seconds and (traced_walls or not trace):
            break

    for key in layers.EXACT_COUNTS:
        values = {p[key] for p in layer_passes}
        if len(values) > 1:
            problems.append(f"{key} differs between traced passes: {sorted(values)}")
    return {
        "walls": walls,
        "traced_walls": traced_walls,
        "layers": layer_passes,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "realizations_per_pass": realizations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def main(argv) -> int:
    mode, *rest = argv
    config_path, result_path = rest[-2:]
    result = {"setup": _setup(config_path)}
    import json
    import os

    import aclab

    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(aclab.__file__).startswith(src + os.sep):
        print(f"aclab imported from {aclab.__file__}, not from {src}", file=sys.stderr)
        return 2
    if mode == "run":
        name, seed, seconds, trace, work = rest[:5]
        result.update(_run(name, int(seed), float(seconds), trace == "1", work,
                           config_path))
        result["env"] = _env()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
