"""Finite-volume laboratory for the ac-conductivity measure of disordered
tight-binding models: exact diagonalization, frequency measures with their
bounds and identities, time-domain linear response, and seeded disorder
ensembles."""

__version__ = "0.1.0"

from .conductivity import (
    MeasureHistogram,
    PairSpectrum,
    conductivity_measure,
    convolution_check,
    degeneracy_threshold,
    frequency_bins,
    gamma_mass,
    pair_spectrum,
    psi_diagonal,
    sandwich_check,
    sum_rule_mass,
    upsilon_measure,
)
from .disorder import DisorderSpec, sample_potential, spectral_bounds
from .ensemble import (
    EnsembleResult,
    Realization,
    SweepTable,
    disorder_sweep,
    ensemble_average,
    realization_pair_spectrum,
    temperature_sweep,
)
from .lattice import (
    DIRICHLET,
    PERIODIC,
    LatticeSpec,
    build_laplacian,
    build_position,
    build_velocity,
)
from .response import (
    FieldPulse,
    ResponseTrace,
    absorbed_energy_lr,
    absorbed_energy_td,
    linear_response_extract,
    propagate_liouville,
)
from .spectral import (
    DosHistogram,
    SpectralData,
    build_hamiltonian,
    dos_histogram,
    eigendecompose,
    energy_bins,
    wegner_check,
)
from .thermo import ThermoParams, c_mu_t, fermi, fermi_derivative_neg, pair_weight
