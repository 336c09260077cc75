import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aclab.conductivity
import aclab.ensemble
from aclab.cli import main
from aclab.config import ConfigError, from_dict, load
from aclab.verify import run_verify


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shape of every array numpy.linalg.eigh diagonalizes while the test runs."""
    calls = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.fixture
def map_calls(monkeypatch):
    """The realization count of each call to ensemble._map_indices while the test runs."""
    calls = []
    original = aclab.ensemble._map_indices

    def counted(worker, n, threads):
        calls.append(n)
        return original(worker, n, threads)

    monkeypatch.setattr(aclab.ensemble, "_map_indices", counted)
    return calls


def test_import_path_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency: importing the CLI, the whole verify
    # battery and the pulse window must load no scipy module
    src = str(Path(aclab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    config, _ = small_config(tmp_path, ensemble={"realizations": 4})
    probe = ("import contextlib, sys, aclab.cli\n"
             "with contextlib.redirect_stdout(sys.stderr):\n"
             f"    code = aclab.cli.main(['verify', '--config', {str(config)!r}])\n"
             "aclab.FieldPulse(1.0, 2.0).time_window()\n"
             "print(code, ' '.join(sys.modules))")
    code, *loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                   text=True, check=True, timeout=60,
                                   env=dict(os.environ, PYTHONPATH=path)).stdout.split()
    assert code == "0"
    assert "aclab.cli" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def small_config(tmp_path, **overrides):
    payload = {
        "format_version": 1,
        "lattice": {"dimension": 1, "linear_size": 8, "boundary": "periodic"},
        "disorder": {"strength": 1.0, "seed": 99},
        "thermo": {"temperature": 1.0, "fermi_level": 0.0},
        "ensemble": {"realizations": 8},
        "output": {"directory": str(tmp_path / "out")},
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path, payload


# (field path, value): each makes the config invalid at exactly that field
MALFORMED = [
    ("dynamics.route_check_dt", None),
    ("thermo.fermi_level", None),
    ("disorder.v_minus", None),
    ("disorder.v_plus", None),
    ("lattice.boundary", None),
    ("pulse.carrier", None),
    ("sweeps.temperature", None),
    ("sweeps.disorder", None),
    ("dynamics.alphas", None),
    ("dynamics.alphas", 0.1),
    ("bins", None),
    ("lattice", 5),
    ("lattice.dimension", [1]),
    ("ensemble.realizations", "many"),
    ("lattice.linear_size", 12.7),
    ("lattice.dimension", True),
    ("disorder.seed", 7.5),
    ("ensemble.realizations", True),
    ("bins.frequency_bins_per_side", 40.5),
    ("bins.dos_bins", False),
    ("disorder.strength", True),
    ("disorder.strength", "1.5"),
    ("dynamics.alphas", "1"),
]

FULL_CONFIG = {
    "format_version": 1,
    "lattice": {"dimension": 2, "linear_size": 4, "boundary": "dirichlet"},
    "disorder": {"v_minus": -0.5, "v_plus": 1.5, "strength": 2.0, "seed": 17},
    "thermo": {"temperature": 0.5, "fermi_level": 0.3},
    "bins": {"frequency_bins_per_side": 40, "nu_max": 3.0, "dos_bins": 24},
    "ensemble": {"realizations": 3},
    "sweeps": {"temperature": [0.5, 1.0], "disorder": [0.1, 0.2]},
    "pulse": {"amplitude": 0.5, "width": 3.0, "carrier": 1.5},
    "dynamics": {"alphas": [0.3, 0.15], "dt": 0.01, "route_check_dt": 0.001},
    "output": {"directory": "elsewhere"},
}


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path, payload = small_config(tmp_path)
        payload["lattice"]["sites"] = 4
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="lattice.sites"):
            load(path)

    @pytest.mark.parametrize("field, value", [
        pytest.param(field, value, id=f"{field}={json.dumps(value)}")
        for field, value in MALFORMED])
    def test_malformed_value_exits_2_naming_field(self, tmp_path, capsys, field, value):
        path, payload = small_config(tmp_path, pulse={"amplitude": 1.0, "width": 2.0})
        section, _, key = field.partition(".")
        if key:
            payload.setdefault(section, {})[key] = value
        else:
            payload[section] = value
        path.write_text(json.dumps(payload))
        assert main(["sigma", "--config", str(path)]) == 2
        message = json.loads(capsys.readouterr().out)
        assert message["status"] == "error"
        assert message["field"] == field

    def test_integral_float_is_an_integer(self, tmp_path):
        path, _ = small_config(tmp_path, lattice={"dimension": 1.0, "linear_size": 12.0})
        lattice = load(path).lattice
        assert (lattice.dimension, lattice.linear_size) == (1, 12)
        assert type(lattice.linear_size) is int

    def test_invalid_value_names_field(self):
        with pytest.raises(ConfigError, match="linear_size"):
            from_dict({
                "lattice": {"dimension": 1, "linear_size": 1},
                "disorder": {"strength": 1.0, "seed": 1},
                "thermo": {"temperature": 1.0},
                "ensemble": {"realizations": 2},
                "output": {"directory": "x"},
            })

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="thermo"):
            from_dict({
                "lattice": {"dimension": 1, "linear_size": 4},
                "disorder": {"strength": 1.0, "seed": 1},
                "ensemble": {"realizations": 2},
                "output": {"directory": "x"},
            })

    def test_round_trip(self, tmp_path):
        path, _ = small_config(tmp_path)
        config = load(path)
        again = from_dict(config.to_dict())
        assert again == config
        # every key set away from its default
        assert from_dict(FULL_CONFIG).to_dict() == FULL_CONFIG
        assert from_dict(from_dict(FULL_CONFIG).to_dict()) == from_dict(FULL_CONFIG)


class TestSigmaCommand:
    def test_writes_files_and_echoes_config(self, tmp_path, capsys):
        path, _ = small_config(tmp_path)
        assert main(["sigma", "--config", str(path)]) == 0
        out = tmp_path / "out"
        header = json.loads((out / "sigma.json").read_text())
        assert header["kind"] == "sigma"
        assert header["config"]["lattice"]["linear_size"] == 8
        assert (out / "sigma.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        path, _ = small_config(tmp_path)
        main(["sigma", "--config", str(path), "--out", str(tmp_path / "a")])
        main(["sigma", "--config", str(path), "--out", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "sigma.csv").read_bytes()
                == (tmp_path / "b" / "sigma.csv").read_bytes())

    def test_write_once(self, tmp_path, capsys):
        path, _ = small_config(tmp_path)
        assert main(["sigma", "--config", str(path)]) == 0
        capsys.readouterr()
        code = main(["sigma", "--config", str(path)])
        assert code != 0
        message = json.loads(capsys.readouterr().out)
        assert message["status"] == "error"
        assert "overwrite" in message["message"]

    def test_invalid_config_exit_and_field(self, tmp_path, capsys):
        path, payload = small_config(tmp_path)
        payload["lattice"]["linear_size"] = 1
        path.write_text(json.dumps(payload))
        code = main(["sigma", "--config", str(path)])
        assert code == 2
        message = json.loads(capsys.readouterr().out)
        assert message["status"] == "error"
        assert "linear_size" in message["message"]

    @pytest.mark.parametrize("dimension, linear_size", [(2, 8), (3, 4)])
    def test_clean_even_box_exits_0_at_the_default_edges(self, tmp_path, dimension,
                                                          linear_size):
        # the extreme levels of a clean even periodic box round a few ulps past
        # +-2d, so the largest pair frequency passes the default nu_max
        lattice = {"dimension": dimension, "linear_size": linear_size, "boundary": "periodic"}
        path, _ = small_config(tmp_path, lattice=lattice, ensemble={"realizations": 2},
                               disorder={"strength": 0.0, "seed": 99})
        assert main(["sigma", "--config", str(path)]) == 0

    def test_seed_override_changes_numbers(self, tmp_path):
        path, _ = small_config(tmp_path)
        main(["sigma", "--config", str(path), "--out", str(tmp_path / "a")])
        main(["sigma", "--config", str(path), "--out", str(tmp_path / "b"),
              "--seed", "123"])
        assert ((tmp_path / "a" / "sigma.csv").read_bytes()
                != (tmp_path / "b" / "sigma.csv").read_bytes())
        header = json.loads((tmp_path / "b" / "sigma.json").read_text())
        assert header["config"]["disorder"]["seed"] == 123


class TestSweepCommand:
    def test_both_axes_produce_independent_outputs(self, tmp_path):
        path, _ = small_config(tmp_path, sweeps={
            "temperature": [0.5, 1.0, 2.0],
            "disorder": [0.1, 0.2, 0.4],
        })
        assert main(["sweep", "--config", str(path), "--axis", "temperature"]) == 0
        assert main(["sweep", "--config", str(path), "--axis", "disorder"]) == 0
        out = tmp_path / "out"
        t_rows = (out / "sweep_temperature.csv").read_text().splitlines()
        assert t_rows[0].startswith("temperature,")
        assert len(t_rows) == 4
        d_rows = (out / "sweep_disorder.csv").read_text().splitlines()
        assert "near_zero_fraction_mean" in d_rows[0]
        summary = json.loads((out / "sweep_temperature.json").read_text())
        assert summary["assertions"]["high_t_bound_ok"] is True
        assert summary["assertions"]["gamma_positive"] is True

    def test_missing_grid_fails(self, tmp_path, capsys):
        path, _ = small_config(tmp_path)
        code = main(["sweep", "--config", str(path), "--axis", "temperature"])
        assert code == 2
        message = json.loads(capsys.readouterr().out)
        assert message["field"] == "sweeps.temperature"

    @pytest.mark.parametrize("axis", ["temperature", "disorder"])
    def test_nu_max_inside_the_spectrum_exits_2(self, tmp_path, capsys, axis):
        # the grid's largest strength is the config's, so both axes and sigma
        # see the same spectral diameter 6.0
        path, _ = small_config(tmp_path, sweeps={"temperature": [0.5, 1.0],
                                                 "disorder": [0.5, 1.0]},
                               bins={"nu_max": 1.0})
        assert main(["sigma", "--config", str(path)]) == 2
        refused = json.loads(capsys.readouterr().out)
        assert refused["message"] == "nu_max 1.0 smaller than spectral diameter 6.0"
        assert main(["sweep", "--config", str(path), "--axis", axis]) == 2
        assert json.loads(capsys.readouterr().out) == refused

    def test_bins_section_reaches_the_disorder_sweep(self, tmp_path):
        def near_zero_columns(name, **overrides):
            (tmp_path / name).mkdir()
            path, _ = small_config(tmp_path / name, sweeps={"disorder": [0.5, 1.0, 2.0]},
                                   **overrides)
            assert main(["sweep", "--config", str(path), "--axis", "disorder"]) == 0
            rows = (tmp_path / name / "out" / "sweep_disorder.csv").read_text().splitlines()
            header = rows[0].split(",")
            keep = [i for i, key in enumerate(header) if key.startswith("near_zero_")]
            assert len(keep) == 4
            return [[row.split(",")[i] for i in keep] for row in rows[1:]]

        default = near_zero_columns("default")
        coarse = near_zero_columns("coarse", bins={"frequency_bins_per_side": 2})
        assert all(a != b for a, b in zip(coarse, default))


class TestAbsorbCommand:
    def test_two_site_resonance_numbers(self, tmp_path):
        path, _ = small_config(
            tmp_path,
            lattice={"dimension": 1, "linear_size": 2, "boundary": "dirichlet"},
            disorder={"strength": 0.0, "seed": 1},
            thermo={"temperature": 0.0, "fermi_level": 0.0},
            pulse={"amplitude": 1.0, "width": 6.0, "carrier": 2.0},
            dynamics={"alphas": [0.2, 0.1, 0.05, 0.025], "dt": 0.01},
        )
        assert main(["absorb", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "absorb.json").read_text())
        assert report["w_lin"] == pytest.approx(report["w_lr"], rel=0.02)
        assert 3.8 <= report["quadratic_ratios"][-1] <= 4.2
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_off_support_pulse_reports_zero(self, tmp_path):
        path, _ = small_config(
            tmp_path,
            lattice={"dimension": 1, "linear_size": 2, "boundary": "dirichlet"},
            disorder={"strength": 0.0, "seed": 1},
            thermo={"temperature": 0.0, "fermi_level": 0.0},
            pulse={"amplitude": 1.0, "width": 2.0, "carrier": 12.0},
            dynamics={"alphas": [0.2, 0.1, 0.05, 0.025], "dt": 0.01},
        )
        assert main(["absorb", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "absorb.json").read_text())
        assert report["w_lr"] < 1e-20
        assert abs(report["w_lin"]) < 1e-6

    def test_one_eigensolve_plus_one_ladder(self, tmp_path, eigh_calls):
        # one eigensolve for the realization, whose eigensystem also gives the
        # ladder its equilibrium state, then one per propagation step per alpha
        alphas = [0.2, 0.1, 0.05, 0.025]
        path, _ = small_config(
            tmp_path,
            lattice={"dimension": 1, "linear_size": 2, "boundary": "dirichlet"},
            disorder={"strength": 0.0, "seed": 1},
            thermo={"temperature": 0.0, "fermi_level": 0.0},
            pulse={"amplitude": 1.0, "width": 6.0, "carrier": 2.0},
            dynamics={"alphas": alphas, "dt": 0.01},
        )
        assert main(["absorb", "--config", str(path)]) == 0
        rows = len((tmp_path / "out" / "trace.csv").read_text().splitlines()) - 1
        matrices = sum(math.prod(shape[:-2]) for shape in eigh_calls)
        assert matrices == 1 + len(alphas) * (rows - 1)

    def test_propagation_block_recorded(self, tmp_path):
        alphas = [0.2, 0.1, 0.05, 0.025]
        path, _ = small_config(
            tmp_path,
            lattice={"dimension": 1, "linear_size": 4, "boundary": "dirichlet"},
            disorder={"strength": 1.0, "seed": 5},
            pulse={"amplitude": 1.0, "width": 2.0, "carrier": 2.0},
            dynamics={"alphas": alphas, "dt": 0.02},
        )
        assert main(["absorb", "--config", str(path)]) == 0
        out = tmp_path / "out"
        block = json.loads((out / "absorb.json").read_text())["propagation"]
        rows = len((out / "trace.csv").read_text().splitlines()) - 1
        assert block["steps"] == rows - 1
        assert block["dt"] <= 0.02
        assert block["eigh_block"] >= 1
        for key in ("trace_drift", "spectrum_drift"):
            assert len(block[key]) == len(alphas)
            assert all(0.0 <= d < 1e-8 for d in block[key])

    def test_periodic_rejected(self, tmp_path, capsys):
        path, _ = small_config(
            tmp_path, pulse={"amplitude": 1.0, "width": 4.0, "carrier": 2.0})
        code = main(["absorb", "--config", str(path)])
        assert code == 2
        assert "dirichlet" in json.loads(capsys.readouterr().out)["message"]

    def test_missing_pulse_rejected(self, tmp_path, capsys):
        path, _ = small_config(
            tmp_path,
            lattice={"dimension": 1, "linear_size": 2, "boundary": "dirichlet"})
        code = main(["absorb", "--config", str(path)])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["field"] == "pulse"


class TestVerifyCommand:
    def test_periodic_battery_passes(self, tmp_path, capsys):
        path, _ = small_config(tmp_path, lattice={
            "dimension": 1, "linear_size": 16, "boundary": "periodic"},
            ensemble={"realizations": 12})
        code = main(["verify", "--config", str(path)])
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert code == 0
        assert any("sum_rule" in line and "PASS" in line for line in lines)
        assert any("energy_routes" in line and "SKIPPED" in line
                   for line in lines)
        assert json.loads(captured.out) == {
            "status": "ok", "files": [str(tmp_path / "out" / "verify.json")], "failed": []}
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert report["report"]["passed"] is True
        assert len(report["report"]["checks"]) == 9

    def test_one_eigensolve_per_realization(self, tmp_path, eigh_calls):
        path, _ = small_config(tmp_path, lattice={
            "dimension": 1, "linear_size": 16, "boundary": "periodic"},
            ensemble={"realizations": 12})
        assert main(["verify", "--config", str(path)]) == 0
        assert sum(math.prod(shape[:-2]) for shape in eigh_calls) == 12

    def test_driven_realization_is_not_diagonalized_again(self, tmp_path, eigh_calls):
        # energy_routes and oracle_energy drive realization 0 from its own
        # record; a coarse route step keeps the run short, and only the
        # eigensolves are counted, not the check statuses
        path, _ = small_config(
            tmp_path,
            lattice={"dimension": 1, "linear_size": 6, "boundary": "dirichlet"},
            ensemble={"realizations": 3},
            pulse={"amplitude": 1.0, "width": 4.0, "carrier": 2.0},
            dynamics={"dt": 0.02, "route_check_dt": 0.02},
        )
        assert main(["verify", "--config", str(path)]) in (0, 1)
        report = json.loads((tmp_path / "out" / "verify.json").read_text())["report"]
        ran = {c["name"] for c in report["checks"] if c["status"] != "skipped"}
        assert {"energy_routes", "oracle_energy"} <= ran
        assert sum(1 for shape in eigh_calls if len(shape) == 2) == 3

    def test_eigensolve_provenance_is_the_worst_realization(self, tmp_path):
        path, _ = small_config(tmp_path, ensemble={"realizations": 4})
        main(["verify", "--config", str(path)])
        block = json.loads((tmp_path / "out" / "verify.json").read_text())["report"]["eigensolve"]
        config = load(path)
        solves = [aclab.ensemble.realization_pair_spectrum(
            config.lattice, config.disorder.with_index(i)).spectral for i in range(4)]
        assert block == {
            "realizations": 4,
            "max_residual": max(s.residual for s in solves),
            "max_orthonormality_defect": max(s.orthonormality for s in solves),
        }
        assert 0.0 < block["max_residual"] <= 1e-10
        assert 0.0 < block["max_orthonormality_defect"] <= 1e-10

    def test_verify_json_is_strict_json_when_no_bin_has_upsilon(self, tmp_path):
        # v = 0 on an L = 2 ring, so sandwich's worst slack over the bins with
        # Upsilon > 0 is +inf; the file holds null there, not Infinity
        path, _ = small_config(tmp_path, ensemble={"realizations": 4}, lattice={
            "dimension": 1, "linear_size": 2, "boundary": "periodic"})
        assert main(["verify", "--config", str(path)]) in (0, 1)

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        text = (tmp_path / "out" / "verify.json").read_text()
        checks = json.loads(text, parse_constant=refuse)["report"]["checks"]
        sandwich = next(c for c in checks if c["name"] == "sandwich")
        assert sandwich["status"] == "pass"
        assert sandwich["margin"] is None

    def test_fault_injection_reported(self, tmp_path, capsys, monkeypatch):
        # negate every pair weight: positivity must fail and the exit reflect it
        original = aclab.conductivity._pair_mass
        monkeypatch.setattr(aclab.conductivity, "_pair_mass",
                            lambda *args: -original(*args))
        path, _ = small_config(tmp_path, ensemble={"realizations": 4})
        code = main(["verify", "--config", str(path)])
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert code == 1
        assert any("positivity" in line and "FAIL" in line for line in lines)
        message = json.loads(captured.out)
        assert message["status"] == "fail"
        assert "positivity" in message["failed"]

    @staticmethod
    def _status(tmp_path, name):
        path, _ = small_config(tmp_path, ensemble={"realizations": 4})
        return next(c for c in run_verify(load(path)).checks if c.name == name).status

    def test_positivity_catches_a_dropped_bin(self, tmp_path, monkeypatch):
        original = aclab.conductivity._mirror_bin

        def drop_largest(*args):
            mass = original(*args)
            mass.flat[np.argmax(mass)] = 0.0  # one realization's largest bin
            return mass

        monkeypatch.setattr(aclab.conductivity, "_mirror_bin", drop_largest)
        assert self._status(tmp_path, "positivity") == "fail"

    def test_margins_read_bins_that_hold_pairs(self, tmp_path):
        path, _ = small_config(tmp_path, ensemble={"realizations": 4})
        checks = {c.name: c for c in run_verify(load(path)).checks}
        assert checks["positivity"].status == "pass"
        assert checks["positivity"].margin > 0.0
        assert checks["sandwich"].status == "pass"
        # a fraction of the envelope, far above the 1e-10 relative tolerance
        assert 1e-6 < checks["sandwich"].margin < 1.0

    def test_positivity_catches_mass_in_an_empty_bin(self, tmp_path, monkeypatch):
        # the outermost bin lies beyond every pair frequency of this config
        original = aclab.conductivity._mirror_bin

        def fill_outermost(*args):
            mass = original(*args)
            mass[:, 0] += 1e-30  # every realization's outermost bin
            return mass

        monkeypatch.setattr(aclab.conductivity, "_mirror_bin", fill_outermost)
        assert self._status(tmp_path, "positivity") == "fail"

    def test_commutator_moments_catch_a_scaled_pair_table(self, tmp_path, monkeypatch):
        # the stored nu > eps_deg pairs no longer sum to the stencil's moments
        original = aclab.ensemble.realization_pair_spectrum

        def scaled(*args):
            record = original(*args)
            pairs = dataclasses.replace(record.pairs,
                                        velocity_abs2=2.0 * record.pairs.velocity_abs2)
            return dataclasses.replace(record, pairs=pairs)

        monkeypatch.setattr(aclab.ensemble, "realization_pair_spectrum", scaled)
        assert self._status(tmp_path, "commutator_moments") == "fail"


SWEEPS = {"temperature": [0.5, 1.0, 2.0], "disorder": [0.1, 0.2, 0.4]}


@pytest.mark.parametrize("command", [
    ["sigma"], ["sweep", "--axis", "temperature"], ["sweep", "--axis", "disorder"],
    ["absorb"]])
def test_pipeline_builds_no_dense_velocity(tmp_path, monkeypatch, command):
    def refuse(*args):
        raise AssertionError("a dense velocity matrix was built")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "aclab" and hasattr(module, "build_velocity"):
            monkeypatch.setattr(module, "build_velocity", refuse)
    path, _ = small_config(
        tmp_path, sweeps=SWEEPS,
        lattice={"dimension": 1, "linear_size": 4, "boundary": "dirichlet"},
        pulse={"amplitude": 1.0, "width": 2.0, "carrier": 2.0},
        dynamics={"alphas": [0.2, 0.1, 0.05, 0.025], "dt": 0.05})
    assert main([command[0], "--config", str(path), *command[1:]]) == 0


class TestSingleRealizationLoop:
    @pytest.mark.parametrize("command, loops", [
        (["sigma"], [8]),
        (["sweep", "--axis", "temperature"], [8]),
        (["sweep", "--axis", "disorder"], [8, 8, 8]),
        (["verify"], [8]),
    ])
    def test_one_loop_per_ensemble(self, tmp_path, map_calls, command, loops):
        path, _ = small_config(tmp_path, sweeps=SWEEPS)
        assert main([command[0], "--config", str(path), *command[1:]]) == 0
        assert map_calls == loops

    @pytest.mark.parametrize("command", [
        ["sigma"], ["sweep", "--axis", "temperature"], ["sweep", "--axis", "disorder"],
        ["verify"]])
    def test_threads_flag_changes_no_byte(self, tmp_path, monkeypatch, command):
        path, _ = small_config(tmp_path, sweeps=SWEEPS)
        written = {}
        for threads in ("1", "2"):
            run_dir = tmp_path / f"threads{threads}"
            run_dir.mkdir()
            # the same relative --out, so the embedded output directory matches too
            monkeypatch.chdir(run_dir)
            assert main([command[0], "--config", str(path), "--out", "out",
                         "--threads", threads, *command[1:]]) == 0
            written[threads] = {f.name: f.read_bytes()
                                for f in (run_dir / "out").iterdir()}
        assert written["1"]
        assert written["1"] == written["2"]
