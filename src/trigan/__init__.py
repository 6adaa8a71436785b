"""Triangular-map generative learning on the unit cube.

Exact transport sampling for grid densities, a certified monotone
generator family with epsilon-nets, divergences and adversarial losses,
minimax fitting, the sampling-error rate experiment, and closed-form
constants for the accompanying error bounds.
"""

from types import ModuleType as _ModuleType

from .bounds import (
    BoundReport,
    bound_report,
    dudley_bound,
    full_C,
    gamma_constant,
    k_schedule,
    mcdiarmid_tail,
    rho_metric,
    thm54_threshold_and_prob,
)
from .density import GridDensity, load_density, make_density, save_density
from .divergence import js_divergence
from .errors import (
    ConfigInvalid,
    DegenerateJacobian,
    IntegralDivergent,
    NetTooLarge,
    NonPositiveDensity,
    ParamsOutOfBox,
    RootNotBracketed,
    TriganError,
)
from .hypothesis import (
    HypothesisConfig,
    build_eps_net,
    make_config,
    make_generator,
)
from .learning import (
    MinimaxResult,
    RateReport,
    TrainingSample,
    make_training_sample,
    minimax_fit,
    rate_experiment,
)
from .rosenblatt import PushforwardDensity, TriangularMap, build_rosenblatt, sample

# every public name imported above
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))

__version__ = "0.1.0"
