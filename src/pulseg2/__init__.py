"""pulseg2: click-stream simulation and second-order coherence estimation.

The package separates what a pulsed-light correlation measurement mixes
together: the quantum state's photon statistics (`states`), the
deterministic pulse shape (`modes`), the stochastic detection record
(`simulate`, `streams`) and the estimators that take the record apart
again (`estimate`).  See README.md for the measurement conventions.
"""

from .errors import ConfigError, EstimationError, StreamFormatError
from .estimate import (
    CoherenceReport,
    ConditionalProbabilityCurve,
    TauHistogram,
    analyze_stream,
    estimate_D0,
    fit_pulse_width,
    g2_sidepeak,
    g2p,
    pn_histogram_g2q,
    recover_g2q_gaussian,
    recover_g2q_general,
    stationary_conditional_probability,
    stationary_g2_zero,
    tau_histogram,
)
from .modes import (
    EtaProfile,
    TemporalMode,
    eta_gaussian,
    eta_numeric,
    eta_profile,
    gaussian_mode,
    hermite_gauss_mode,
    intensity_profile,
    parse_mode_spec,
    sampled_mode,
)
from .simulate import (
    DetectorModel,
    PulseTrainConfig,
    StationaryThermalConfig,
    analytic_D,
    analytic_Ip,
    simulate_pulse_train,
    simulate_stationary_poisson,
    simulate_stationary_thermal,
)
from .states import (
    QuantumState,
    binomial_loss_pn,
    coherent,
    fock,
    from_pn,
    g2q_from_moments,
    g2q_from_pn,
    mean_photon_number,
    mixture,
    parse_state_spec,
    second_factorial_moment,
    thermal,
)
from .streams import ClickStream, read_stream, write_stream

from ._version import __version__
