"""Analysis of asynchronous OFDM networks over Poisson transmitter fields."""

from .link import (
    OfdmConfig,
    PowerProfile,
    SymbolStream,
    analytic_power_profile,
    demodulate_window,
    empirical_power_profile,
    modulate_symbol,
    receive_window,
)
from .sinr import (
    NetworkParams,
    NetworkSnapshot,
    cp_weight,
    hypothesis_set,
    hypothesis_weight,
)
from .timing import TimingModel, delta, truncated_gaussian, uniform
from .analytics import (
    CountDistribution,
    lambda_tilde,
    laplace_interference,
    mean_decodable,
    mean_decodable_upper_bound,
    mean_decodable_with_hypotheses,
    nearest_decoding_prob,
    optimize_threshold,
    rho,
    upsilon_upper_distribution,
)
from .simulation import (
    Estimate,
    SimSpec,
    count_decodable,
    estimate_distribution,
    estimate_mean_decodable,
    estimate_nearest_prob,
    run_trials,
    sample_snapshot,
)

__version__ = "0.1.0"
