"""The verify battery's exact checks, and the faults each of them must catch.

(ad_H^k v)_nm = nu_nm^k v_nm, so the stencil's ||ad_H^k A||_F^2 must equal
the table's sum of nu^2k |v|^2 on every box, and any corruption of the table,
its energies or the eigenvectors it came from must break the equality.  Every
pair weight is at most 1/4T, so Sigma(R) <= (pi/4T) ||v||_F^2 / |Lambda| with
the norm read from the lattice; the total mass equals 2 pi <f(H)_{x+e1,x}>
per realization, less the twist stiffness on periodic boxes; and every sigma
bin holds exactly the mass np.histogram puts there.
"""

import dataclasses
import functools
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from aclab import DisorderSpec, FieldPulse, LatticeSpec, ThermoParams, build_velocity, \
    ensemble_average, pair_spectrum, realization_pair_spectrum
from aclab.config import DynamicsSettings, RunConfig
import aclab.conductivity as cond
import aclab.ensemble as ens
import aclab.verify as ver
from aclab.verify import run_verify

from conftest import MASTER_SEED, lattices


def _config(lattice, strength, seed=MASTER_SEED, realizations=2,
            thermo=ThermoParams(1.0, 0.2)):
    return RunConfig(lattice=lattice, disorder=DisorderSpec(strength=strength, seed=seed),
                     thermo=thermo, ensemble={"realizations": realizations},
                     output={"directory": "unused"})


def _statuses(config) -> dict:
    return {c.name: c.status for c in run_verify(config).checks}


@settings(max_examples=40, deadline=None)
@given(lattices(), st.sampled_from([0.0, 1.0, 5.0]), st.integers(0, 2**32 - 1))
@example(LatticeSpec(3, 2, "periodic"), 0.0, 0)  # A = 0: the doubled bonds cancel
@example(LatticeSpec(2, 2, "dirichlet"), 5.0, 0)
@example(LatticeSpec(1, 16, "periodic"), 0.0, 0)
def test_commutator_moments_hold_on_every_box(lattice, strength, seed):
    # pass: the worst scaled gap over k = 0..4 and both realizations is <= 1e-12
    assert _statuses(_config(lattice, strength, seed))["commutator_moments"] == "pass"


def _doubled(record, lattice):
    return dataclasses.replace(record.pairs, velocity_abs2=2.0 * record.pairs.velocity_abs2)


def _swapped_energies(record, lattice):
    energies = record.pairs.energies.copy()
    energies[[3, 4]] = energies[[4, 3]]
    return dataclasses.replace(record.pairs, energies=energies)


def _rotated_eigensystem(record, lattice):
    # an eigenbasis off by a 1e-6 rotation of columns 5 and 6, its table as solved
    vectors = record.spectral.vectors.copy()
    c, s = np.cos(1e-6), np.sin(1e-6)
    vectors[:, [5, 6]] = vectors[:, [5, 6]] @ np.array([[c, s], [-s, c]])
    return dataclasses.replace(record, spectral=dataclasses.replace(record.spectral,
                                                                    vectors=vectors))


def _rotated_vectors(record, lattice):
    # the table of the rotated eigenbasis
    return pair_spectrum(_rotated_eigensystem(record, lattice).spectral, lattice)


def _dropped_pair(record, lattice):
    ps = record.pairs
    keep = np.arange(ps.nu.size) != np.argmax(ps.velocity_abs2)
    return dataclasses.replace(ps, rows=ps.rows[keep], cols=ps.cols[keep], nu=ps.nu[keep],
                               velocity_abs2=ps.velocity_abs2[keep])


def _dropped_degenerate_pair(record, lattice):
    ps = record.pairs
    keep = np.arange(ps.degenerate_abs2.size) != np.argmax(ps.degenerate_abs2)
    return dataclasses.replace(ps, degenerate_rows=ps.degenerate_rows[keep],
                               degenerate_cols=ps.degenerate_cols[keep],
                               degenerate_abs2=ps.degenerate_abs2[keep])


RING = LatticeSpec(1, 32, "periodic")
FAULTS = [
    (_doubled, RING, 1.0),
    (_doubled, LatticeSpec(3, 4, "dirichlet"), 5.0),
    (_swapped_energies, RING, 1.0),
    (_swapped_energies, LatticeSpec(2, 6, "periodic"), 5.0),
    (_rotated_vectors, RING, 1.0),
    (_rotated_vectors, LatticeSpec(3, 4, "dirichlet"), 1.0),
    (_dropped_pair, RING, 1.0),
    (_dropped_pair, LatticeSpec(1, 16, "dirichlet"), 1.0),
    # degenerate |v|^2 is nonzero only on clean boxes
    (_dropped_degenerate_pair, LatticeSpec(2, 8, "periodic"), 0.0),
    (_dropped_degenerate_pair, RING, 0.0),
]


@pytest.mark.parametrize(
    "fault, lattice, strength", FAULTS,
    ids=[f"{f.__name__[1:]}-d{lat.dimension}L{lat.linear_size}-{lat.boundary}-{lam:g}"
         for f, lat, lam in FAULTS])
def test_commutator_moments_catch_a_corrupted_table(fault, lattice, strength, monkeypatch):
    _on_tables(fault)(monkeypatch)
    assert _statuses(_config(lattice, strength))["commutator_moments"] == "fail"


@pytest.mark.parametrize("lattice", [LatticeSpec(2, 8), LatticeSpec(2, 16), LatticeSpec(3, 4)],
                         ids=["d2L8", "d2L16", "d3L4"])
def test_verify_passes_commutator_moments_on_clean_periodic_boxes(lattice):
    # every nu > eps_deg |v|^2 here is rounding noise and all the mass sits in
    # degenerate pairs
    checks = run_verify(_config(lattice, 0.0, realizations=4)).checks
    assert next(c for c in checks if c.name == "commutator_moments").status == "pass"


def _scaled_atom(factor):
    def fault(record, lattice):
        return dataclasses.replace(record.pairs,
                                   degenerate_abs2=factor * record.pairs.degenerate_abs2)
    return fault


def _scaled_nu(factor):
    def fault(record, lattice):
        return dataclasses.replace(record.pairs, nu=factor * record.pairs.nu)
    return fault


def _on_records(corrupt):
    """Every realization the pipeline solves is replaced by corrupt(record, lattice)."""
    def inject(monkeypatch):
        solve = ens.realization_pair_spectrum
        monkeypatch.setattr(ens, "realization_pair_spectrum",
                            lambda lattice, spec: corrupt(solve(lattice, spec), lattice))
    return inject


def _on_tables(corrupt):
    """Every realization the pipeline solves carries corrupt(record, lattice) as its table."""
    return _on_records(lambda record, lattice: dataclasses.replace(
        record, pairs=corrupt(record, lattice)))


def _nudged_potential(record, lattice):
    potential = record.potential.copy()
    potential[0] += 1e-6
    return dataclasses.replace(record, potential=potential)


def _pulled_energies(factor):
    # the eigensystem's energies (not the table's) pulled towards their mean
    def fault(record, lattice):
        e = record.spectral.energies
        return dataclasses.replace(record, spectral=dataclasses.replace(
            record.spectral, energies=e.mean() + factor * (e - e.mean())))
    return fault


def _scaled_output(module, name, factor, attr=None):
    """module.name returns its result, or the result's attr, times factor."""
    def inject(monkeypatch):
        original = getattr(module, name)

        def scaled(*args, **kwargs):
            out = original(*args, **kwargs)
            if attr is None:
                return factor * out
            return dataclasses.replace(out, **{attr: factor * getattr(out, attr)})

        monkeypatch.setattr(module, name, scaled)
    return inject


def _nu_binned_high(monkeypatch):
    # every nu binned 2% high inside _mirror_bin
    half_index = cond._half_index
    monkeypatch.setattr(cond, "_half_index", lambda nu, edges: half_index(1.02 * nu, edges))


OPEN_CHAIN = LatticeSpec(1, 12, "dirichlet")
# the boxes of the fault matrix; d1L3-pulse is small enough for both
# time-domain checks to run in about a second
BOXES = {
    "clean-ring": _config(RING, 0.0),
    "ring": _config(RING, 1.0),
    "d1L12-dirichlet": _config(OPEN_CHAIN, 1.0),
    "d1L3-pulse": dataclasses.replace(
        _config(LatticeSpec(1, 3, "dirichlet"), 1.0),
        pulse=FieldPulse(amplitude=1.0, width=1.0, carrier=2.0),
        dynamics=DynamicsSettings(dt=0.01, route_check_dt=2e-4)),
}


@functools.cache
def _clean_statuses(box: str) -> dict:
    """One clean run per box, shared by every case on it."""
    return _statuses(BOXES[box])


# fault: (injection, box, the checks it must fail).  On the clean ring all
# mass is degenerate and the atom's (-f)' sits just under 1/4T.  Every
# measure and both sides of convolution bin through _mirror_bin, so only
# positivity's np.histogram sees a misplaced nu, and only convolution's
# half-tanh oracle reads a stored nu against the energies.  The eigensystem
# faults leave the table as solved; without a pulse only the sum rule's right
# side reads the eigenvectors, only wegner and that side read the
# eigensystem's energies, and only commutator_moments and, on a periodic box,
# the sum rule's twist drift (realization 0 alone) read the potential.
FAULT_MATRIX = {
    "atom-x1.05-ring": (_on_tables(_scaled_atom(1.05)), "clean-ring",
                        {"high_t_bound", "commutator_moments", "sum_rule"}),
    "atom-x1.5-ring": (_on_tables(_scaled_atom(1.5)), "clean-ring",
                       {"high_t_bound", "commutator_moments", "sum_rule"}),
    "atom-x3-ring": (_on_tables(_scaled_atom(3.0)), "clean-ring",
                     {"high_t_bound", "commutator_moments", "sum_rule"}),
    "doubled-ring": (_on_tables(_doubled), "ring", {"high_t_bound", "commutator_moments"}),
    "doubled-d1L12-dirichlet": (_on_tables(_doubled), "d1L12-dirichlet",
                                {"high_t_bound", "sum_rule", "commutator_moments"}),
    "nu-binned-high-ring": (_nu_binned_high, "ring", {"positivity"}),
    "nu-binned-high-d1L12-dirichlet": (_nu_binned_high, "d1L12-dirichlet", {"positivity"}),
    "nu-x1.01-ring": (_on_tables(_scaled_nu(1.01)), "ring", {"convolution"}),
    "nu-x1.01-d1L12-dirichlet": (_on_tables(_scaled_nu(1.01)), "d1L12-dirichlet",
                                 {"convolution"}),
    "gamma-mass-x(1+1e-9)-ring": (_scaled_output(cond, "gamma_mass", 1 + 1e-9), "ring",
                                  {"sum_rule"}),
    "rotated-eigenvectors-d1L12-dirichlet": (_on_records(_rotated_eigensystem),
                                             "d1L12-dirichlet", {"sum_rule"}),
    "potential-nudged-ring": (_on_records(_nudged_potential), "ring",
                              {"commutator_moments"}),
    "potential-nudged-d1L12-dirichlet": (_on_records(_nudged_potential), "d1L12-dirichlet",
                                         {"commutator_moments"}),
    "upsilon-halved-ring": (_scaled_output(cond, "upsilon_measure", 0.5, "bin_mass"), "ring",
                            {"sandwich"}),
    "energies-pulled-0.3-ring": (_on_records(_pulled_energies(0.3)), "ring",
                                 {"wegner", "sum_rule"}),
    "current-x(1+1e-6)-d1L3-pulse": (
        _scaled_output(ver, "propagate_liouville", 1 + 1e-6, "current"), "d1L3-pulse",
        {"energy_routes"}),
    "w-lr-x1.1-d1L3-pulse": (_scaled_output(ver, "absorbed_energy_lr", 1.1), "d1L3-pulse",
                             {"oracle_energy"}),
}


@pytest.mark.parametrize("case", sorted(FAULT_MATRIX))
def test_fault_matrix(case, monkeypatch):
    inject, box, must_fail = FAULT_MATRIX[case]
    clean = _clean_statuses(box)
    assert all(clean[name] == "pass" for name in must_fail)
    inject(monkeypatch)
    faulty = _statuses(BOXES[box])
    assert {name: faulty[name] for name in must_fail} == dict.fromkeys(must_fail, "fail")


def test_every_check_has_a_fault_it_fails():
    # a check that no fault fails shows nothing: every check that a clean
    # periodic run or a clean open run with a pulse reports must be asked to
    # fail by some case, and every case must ask for at least one failure
    assert all(must_fail for _, _, must_fail in FAULT_MATRIX.values())
    asked = set().union(*(must_fail for _, _, must_fail in FAULT_MATRIX.values()))
    for box in ("ring", "d1L3-pulse"):
        assert set(_clean_statuses(box)) <= asked


@pytest.mark.parametrize("lattice", [LatticeSpec(2, 8), LatticeSpec(3, 4), LatticeSpec(1, 2),
                                     LatticeSpec(2, 2), LatticeSpec(3, 2)],
                         ids=["d2L8", "d3L4", "d1L2", "d2L2", "d3L2"])
def test_high_t_bound_holds_on_clean_periodic_boxes(lattice):
    # the atom carries all the mass here; at L = 2 the doubled bonds cancel, A = 0
    # and the ceiling is the 1e-12 slack alone
    assert _statuses(_config(lattice, 0.0))["high_t_bound"] == "pass"


@settings(max_examples=40, deadline=None)
@given(lattices().map(lambda lattice: dataclasses.replace(lattice, boundary="dirichlet")),
       st.sampled_from([0.0, 1.0, 5.0]), st.sampled_from([0.0, 0.05, 1.0, 16.0]),
       st.floats(-8.0, 8.0), st.integers(0, 2**32 - 1))
@example(LatticeSpec(1, 12, "dirichlet"), 1.0, 0.0, 0.3, 0)
@example(LatticeSpec(2, 2, "dirichlet"), 0.0, 0.0, 8.0, 0)  # every level full: rhs is rounding
@example(LatticeSpec(3, 6, "dirichlet"), 5.0, 0.05, 0.3, 0)
def test_sum_rule_is_exact_on_open_boxes(lattice, strength, temperature, mu, seed):
    # the T = 0 measure is defined only with mu off every level
    config = _config(lattice, strength, seed, thermo=ThermoParams(temperature, mu))
    tables = [realization_pair_spectrum(lattice, config.disorder.with_index(i)).pairs
              for i in range(2)]
    assume(temperature > 0 or all(np.abs(t.energies - mu).min() > t.eps_deg for t in tables))
    assert _statuses(config)["sum_rule"] == "pass"


RUNS = {
    "verify-periodic": lambda: run_verify(_config(LatticeSpec(1, 8), 1.0, realizations=4)),
    "verify-dirichlet": lambda: run_verify(dataclasses.replace(
        _config(LatticeSpec(1, 6, "dirichlet"), 1.0, realizations=4),
        pulse=FieldPulse(amplitude=1.0, width=4.0, carrier=2.0),
        dynamics=DynamicsSettings(dt=0.02, route_check_dt=0.02))),
    "sigma": lambda: ensemble_average(DisorderSpec(strength=1.0, seed=MASTER_SEED),
                                      LatticeSpec(1, 8), ThermoParams(1.0, 0.2), n=4),
}


@pytest.mark.parametrize("command", sorted(RUNS))
def test_eigenvectors_do_not_outlive_their_realization(command, monkeypatch):
    # the four small tables share one block, so they outlive their eigenvectors;
    # on the dirichlet box realization 0 also drives both time-domain routes
    solve = ens.realization_pair_spectrum
    vectors, alive = [], []

    def traced(lattice, spec):
        alive.append([i for i, ref in enumerate(vectors) if ref() is not None])
        record = solve(lattice, spec)
        vectors.append(weakref.ref(record.spectral.vectors))
        return record

    monkeypatch.setattr(ens, "realization_pair_spectrum", traced)
    RUNS[command]()
    assert alive == [[], [], [], []]


@pytest.mark.parametrize("realizations", [1, 9, 33])
@pytest.mark.parametrize("lattice", [RING, OPEN_CHAIN], ids=["ring", "d1L12-dirichlet"])
def test_the_battery_reads_the_same_in_blocks_of_one(lattice, realizations, monkeypatch):
    # a ring's block holds 10 tables, so the 8- and 32-realization prefixes
    # of the binned checks end inside a block
    assert cond.tables_per_block(realization_pair_spectrum(
        RING, DisorderSpec(strength=1.0, seed=MASTER_SEED)).pairs) == 10
    config = _config(lattice, 1.0, realizations=realizations)
    blocked = run_verify(config).to_dict()
    monkeypatch.setattr(cond, "BLOCK_BYTES", 1)
    assert run_verify(config).to_dict() == blocked


@pytest.mark.parametrize("size, realizations", [(4, 9), (6, 4)])
def test_the_battery_passes_on_open_d3_boxes(size, realizations):
    report = run_verify(_config(LatticeSpec(3, size, "dirichlet"), 1.0,
                                realizations=realizations))
    assert report.passed, report.lines()


PERIODIC_BOXES = [(LatticeSpec(1, 32), 0.0), (LatticeSpec(2, 8), 0.0), (LatticeSpec(2, 16), 0.0),
                  (LatticeSpec(3, 4), 0.0), (LatticeSpec(3, 4), 1.0), (LatticeSpec(3, 6), 1.0),
                  (LatticeSpec(1, 2), 0.0)]


@pytest.mark.parametrize("lattice, strength", PERIODIC_BOXES,
                         ids=[f"d{lat.dimension}L{lat.linear_size}-{lam:g}"
                              for lat, lam in PERIODIC_BOXES])
def test_the_battery_passes_on_periodic_boxes(lattice, strength):
    # the sum rule less the twist stiffness; the raw identity misses by up to
    # 0.79 of its scale here (the L = 2 ring, which takes M = 32 phases)
    report = run_verify(_config(lattice, strength, realizations=4))
    assert report.passed, report.lines()
    assert next(c for c in report.checks if c.name == "sum_rule").status == "pass"


def test_sum_rule_skips_an_unresolved_twist_series():
    # at T = 0.05 the L = 2 ring's Omega(phi) has harmonics past M = 64
    config = _config(LatticeSpec(1, 2), 0.0, thermo=ThermoParams(0.05, 0.2))
    sum_rule = next(c for c in run_verify(config).checks if c.name == "sum_rule")
    assert sum_rule.status == "skipped"
    assert "M = 64" in sum_rule.detail


@pytest.mark.parametrize("lattice", [RING, OPEN_CHAIN, LatticeSpec(1, 2), LatticeSpec(3, 4)],
                         ids=["ring", "d1L12-dirichlet", "d1L2", "d3L4"])
def test_the_hop_matrix_is_its_own_real_array(lattice):
    # A = i v, built from the stencil: no view into a complex n x n product
    hop = ver._Context(_config(lattice, 1.0)).hop
    assert hop.dtype == np.float64 and hop.flags.c_contiguous and hop.base is None
    assert np.array_equal(hop, (1j * build_velocity(lattice)).real)
