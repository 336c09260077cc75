"""Self-tests of the benchmark: span arithmetic, patching, and the output gates."""

import csv
import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, check_call, disorder_seed, mismatches  # noqa: E402


def _span(id, parent, start, end, name="s"):
    return tracing.Span(id, name, parent, start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),    # overlaps its sibling: the union counts once
        _span(2, 0, 3.0, 6.0),
        _span(3, 1, 2.0, 3.0),    # grandchild: only its parent's self time shrinks
        _span(4, 0, 8.0, 12.0),   # runs past the parent's end: clipped
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(4.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracing.percentile(values, 99) == 99
    assert tracing.percentile(values, 50) == 50
    assert tracing.percentile([7.0], 99) == 7.0
    assert tracing.percentile([], 99) == 0.0


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "pbfake"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("def f(x):\n    return 2 * x\n")
    (pkg / "b.py").write_text("from .a import f\n\ndef g(x):\n    return f(x) + 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import pbfake.a
    import pbfake.b

    yield pbfake.a, pbfake.b
    for name in ("pbfake", "pbfake.a", "pbfake.b"):
        sys.modules.pop(name, None)


def test_wrapper_catches_names_bound_by_from_import(fake_package):
    a, b = fake_package
    original = a.f
    tracer = tracing.Tracer(packages=("pbfake",))
    tracer.add(a, "f", "a.f")
    with tracer:
        assert b.f is not original
        assert b.g(3) == 7
    assert a.f is original and b.f is original
    assert [s.name for s in tracer.spans] == ["a.f"]
    assert b.g(3) == 7 and len(tracer.spans) == 1


def test_a_call_that_raises_is_closed_and_marked(fake_package):
    a, b = fake_package
    tracer = tracing.Tracer(packages=("pbfake",))
    tracer.add(a, "f", "response.propagate_liouville", result_attrs=layers._steps)
    with tracer, pytest.raises(TypeError):
        b.g(None)
    assert [s.attrs for s in tracer.spans] == [{"error": True}]
    assert layers.pass_metrics(tracer.spans, 1, 0)["response.steps"] == 0


def test_explicit_parent_crosses_threads():
    tracer = tracing.Tracer(packages=())
    root = tracer.begin("pool")

    def work():
        child = tracer.begin("realization", parent=root.id)
        inner = tracer.begin("inner")
        tracer.end(inner)
        tracer.end(child)

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.end(root)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["realization"].parent == root.id
    assert by_name["inner"].parent == by_name["realization"].id


def test_aclab_tracer_patches_every_binding_and_restores():
    import numpy
    from aclab import cli, ensemble, spectral, verify

    originals = (spectral.eigendecompose, ensemble.realization_pair_spectrum,
                 numpy.linalg.eigh)
    with layers.make_tracer():
        assert cli.eigendecompose is spectral.eigendecompose is not originals[0]
        assert verify.realization_pair_spectrum is not originals[1]
        assert numpy.linalg.eigh is not originals[2]
    assert (spectral.eigendecompose, verify.realization_pair_spectrum,
            numpy.linalg.eigh) == originals


def _small_config(tmp_path) -> Path:
    path = WORKLOADS["battery-d1"].write_config(HERE.parent, tmp_path)
    config = json.loads(path.read_text())
    config["lattice"]["linear_size"] = 8
    config["ensemble"]["realizations"] = 3
    path.write_text(json.dumps(config))
    return path


def test_traced_sigma_counts_one_eigensolve_per_realization(tmp_path):
    from aclab import cli

    argv = ["sigma", "--config", str(_small_config(tmp_path)),
            "--out", str(tmp_path / "out"), "--threads", "2"]
    tracer = layers.make_tracer()
    with tracer:
        assert cli.main(argv) == 0
    metrics = layers.pass_metrics(tracer.spans, realizations=3, verify_realizations=0)
    assert metrics["spectral.eigensolves"] == 3
    assert metrics["conductivity.pair_tables"] == 3
    assert metrics["spectral.eigensolves_per_realization"] == 1.0
    assert metrics["disorder.potentials"] == 3
    assert metrics["io.bytes_written"] == sum(
        p.stat().st_size for p in (tmp_path / "out").iterdir())
    assert 0.0 < metrics["ensemble.pool_busy_fraction"] <= 1.0


def _rewrite_mass(path: Path, index: int, value: float):
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    rows[1 + index][2] = repr(value)
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def test_sigma_gate_fails_on_corrupted_artifacts(tmp_path):
    from aclab import cli

    out = tmp_path / "out"
    argv = ["sigma", "--config", str(_small_config(tmp_path)), "--out", str(out)]
    assert cli.main(argv) == 0
    failures, scalars = check_call(argv, out, 0)
    assert failures == [] and scalars["sigma.sigma_total"] > 0
    assert check_call(argv, out, 2)[0] == ["sigma exited 2"]

    _rewrite_mass(out / "sigma.csv", 0, 1e-3)  # breaks mirror evenness
    assert any("mirror-even" in f for f in check_call(argv, out, 0)[0])
    _rewrite_mass(out / "sigma.csv", 0, -1e-3)
    assert any("negative" in f for f in check_call(argv, out, 0)[0])
    (out / "sigma.json").unlink()
    assert any("unreadable" in f for f in check_call(argv, out, 0)[0])


def _absorb_artifacts(out: Path, w_lin=1.0, w_lr=1.02, ratios=(3.7, 3.95, 3.99)):
    out.mkdir(parents=True, exist_ok=True)
    (out / "trace.csv").write_text("t,field,current,running_work\n0,0,0,0\n")
    (out / "absorb.json").write_text(json.dumps({
        "w_lin": w_lin, "w_lr": w_lr, "w_current": 1.0, "w_energy": 1.0,
        "quadratic_ratios": list(ratios)}))


def test_absorb_gate_applies_the_oracle_energy_bounds(tmp_path):
    argv = ["absorb"]
    _absorb_artifacts(tmp_path / "ok")
    assert check_call(argv, tmp_path / "ok", 0)[0] == []
    _absorb_artifacts(tmp_path / "far", w_lr=1.2)
    assert check_call(argv, tmp_path / "far", 0)[0]
    _absorb_artifacts(tmp_path / "ratio", ratios=(3.9, 3.95, 4.3))
    assert check_call(argv, tmp_path / "ratio", 0)[0]


def test_verify_and_sweep_gates_fail_on_a_false_assertion(tmp_path):
    (tmp_path / "verify.json").write_text(json.dumps({"report": {
        "passed": False, "checks": [{"name": "sum_rule", "status": "fail"}]}}))
    assert check_call(["verify"], tmp_path, 0)[0]
    (tmp_path / "sweep_temperature.json").write_text(json.dumps({
        "assertions": {"gamma_positive": True, "sigma_decreasing": False}}))
    (tmp_path / "sweep_temperature.csv").write_text("sigma_total_mean\n1.5\n")
    argv = ["sweep", "--axis", "temperature"]
    failures, scalars = check_call(argv, tmp_path, 0)
    assert failures and "sigma_decreasing" in failures[0]
    assert scalars == {"sweep_temperature.sigma_total_mean.0": 1.5}


def test_reference_mismatch_beyond_tolerance_fails():
    reference = {"absorb.w_lin": 0.125}
    assert mismatches({"absorb.w_lin": 0.125 * (1 + 1e-12)}, reference) == []
    assert mismatches({"absorb.w_lin": 0.125 * (1 + 1e-9)}, reference)
    assert mismatches({"absorb.other": 5.0}, reference) == []


def test_reference_file_covers_every_workload_at_seed_zero():
    stored = json.loads((HERE / "reference.json").read_text())
    assert set(stored) == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        assert set(stored[name]) == {str(i) for i in range(workload.seed_cycle)}


def test_workload_seed_zero_is_the_shipped_disorder_seed():
    shipped = json.loads((HERE.parent / "configs" / "verify_periodic.json").read_text())
    assert disorder_seed(0, 0) == shipped["disorder"]["seed"]
    assert len({disorder_seed(s, i) for s in range(50) for i in range(3)}) == 150
