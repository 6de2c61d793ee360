"""Exact distortion/perception analysis for finite-alphabet codecs.

Everything here is computed, never sampled: sources are finite discrete
distributions, decoders are probability tables, Wasserstein distances come out
of exact linear programs, so each identity in the library is checkable to
solver precision.
"""
from .distcore import (
    DiscreteDistribution,
    builtin_source,
    conditional_x_given_z,
    gaussian_grid,
    joint_from_encoder,
    make_distribution,
    source_from_json,
)
from .transport import (
    SIZE_CAP,
    TransportPlan,
    solve_transport_lp,
    w1_exact,
    w2sq_exact,
    w_1d_closed_form,
)
from .codec import (
    DeterministicDecoder,
    Encoder,
    StochasticDecoder,
    check_zd_xd_bijective,
    codec_to_json,
    decoder_output_dist,
    distortion,
    exhaustive_optimal_encoder,
    lloyd_train,
    mmse_decoder_for,
    perceptual_decoder_for,
)
from .tradeoff import (
    TradeoffPoint,
    UniversalityReport,
    UniversalityRow,
    alpha_for_perception,
    constrained_oracle,
    default_oracle_support,
    dp_derivatives,
    interpolate,
    predicted_distortion,
    predicted_perception,
    sweep,
    sweep_to_csv,
    universal_encoder_check,
)
from .augmented import (
    AugmentedSolution,
    augmented_objective,
    beta_to_lambda,
    conditioning_equivalence,
    matched_pair_floor,
    phase_sweep,
    phase_to_csv,
    solve_augmented,
)
from .checks import CheckResult, report_text, run_checks

__version__ = "0.1.0"
