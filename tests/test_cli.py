import dataclasses
import json
import math

import numpy as np
import pytest

import aclab.conductivity
import aclab.verify
from aclab.cli import main
from aclab.config import ConfigError, from_dict, load
from aclab.verify import run_verify


@pytest.fixture
def eigh_calls(monkeypatch):
    """Count the matrices numpy.linalg.eigh diagonalizes while the test runs."""
    calls = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(math.prod(np.shape(a)[:-2]))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


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


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path, payload = small_config(tmp_path)
        payload["lattice"]["sites"] = 4
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="lattice.sites"):
            load(path)

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
        # one eigensolve for the realization, one for the equilibrium state the
        # ladder shares, then one per propagation step for each alpha
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
        assert sum(eigh_calls) == 2 + len(alphas) * (rows - 1)

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
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert any("sum_rule" in line and "PASS" in line for line in lines)
        assert any("velocity_position" in line and "SKIPPED" in line
                   for line in lines)
        report = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert report["report"]["passed"] is True

    def test_one_eigensolve_per_realization(self, tmp_path, eigh_calls):
        path, _ = small_config(tmp_path, lattice={
            "dimension": 1, "linear_size": 16, "boundary": "periodic"},
            ensemble={"realizations": 12})
        assert main(["verify", "--config", str(path)]) == 0
        assert sum(eigh_calls) == 12

    def test_support_margin_is_positive_zero(self, tmp_path):
        path, _ = small_config(tmp_path, ensemble={"realizations": 4})
        report = run_verify(load(path))
        support = next(c for c in report.checks if c.name == "support")
        assert support.status == "pass"
        assert support.margin == 0.0
        assert math.copysign(1.0, support.margin) == 1.0

    def test_fault_injection_reported(self, tmp_path, capsys, monkeypatch):
        # negate every pair weight: positivity must fail and the exit reflect it
        original = aclab.conductivity.pair_weight
        monkeypatch.setattr(aclab.conductivity, "pair_weight",
                            lambda *args: -original(*args))
        path, _ = small_config(tmp_path, ensemble={"realizations": 4})
        code = main(["verify", "--config", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert any("positivity" in line and "FAIL" in line for line in lines)

    @staticmethod
    def _status(tmp_path, name):
        path, _ = small_config(tmp_path, ensemble={"realizations": 4})
        return next(c for c in run_verify(load(path)).checks if c.name == name).status

    def test_decomposition_catches_a_dropped_bin(self, tmp_path, monkeypatch):
        original = aclab.conductivity._mirror_bin

        def drop_largest(*args):
            mass = original(*args)
            mass[np.argmax(mass)] = 0.0
            return mass

        monkeypatch.setattr(aclab.conductivity, "_mirror_bin", drop_largest)
        assert self._status(tmp_path, "decomposition") == "fail"

    def test_evenness_catches_a_scaled_pair_table(self, tmp_path, monkeypatch):
        # the stored nu > eps_deg pairs no longer match their dense partners
        original = aclab.verify.realization_pair_spectrum

        def scaled(*args):
            record = original(*args)
            pairs = dataclasses.replace(record.pairs,
                                        velocity_abs2=2.0 * record.pairs.velocity_abs2)
            return dataclasses.replace(record, pairs=pairs)

        monkeypatch.setattr(aclab.verify, "realization_pair_spectrum", scaled)
        assert self._status(tmp_path, "evenness") == "fail"

