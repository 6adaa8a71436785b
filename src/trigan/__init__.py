"""Triangular-map generative learning on the unit cube.

Exact transport sampling for grid densities, a certified monotone
generator family with epsilon-nets, divergences and adversarial losses,
minimax fitting, the sampling-error rate experiment, and closed-form
constants for the accompanying error bounds.

Every submodule but `cli` is registered lazily (importlib.util.LazyLoader):
it is in sys.modules and on the package from the start, and its body runs
on its first attribute access, so a command runs only the modules it uses.
The public names below are served from their modules on access (PEP 562).
`cli` is imported normally, because `python -m trigan.cli` runs it as
`__main__`, and runpy warns about a module already in sys.modules.
"""

import importlib.util as _util
import sys as _sys

# defining submodule -> the public names it exports
_EXPORTS = {
    "bounds": ("BoundReport", "bound_report", "dudley_bound", "full_C", "gamma_constant",
               "k_schedule", "mcdiarmid_tail", "rho_metric", "thm54_threshold_and_prob"),
    "density": ("GridDensity", "load_density", "make_density", "save_density"),
    "divergence": ("js_divergence",),
    "errors": ("ConfigInvalid", "DegenerateJacobian", "IntegralDivergent", "NetTooLarge",
               "NonPositiveDensity", "ParamsOutOfBox", "RootNotBracketed", "TriganError"),
    "hypothesis": ("HypothesisConfig", "build_eps_net", "make_config", "make_generator"),
    "learning": ("MinimaxResult", "RateReport", "TrainingSample", "make_training_sample",
                 "minimax_fit", "rate_experiment"),
    "rosenblatt": ("PushforwardDensity", "TriangularMap", "build_rosenblatt", "sample"),
}
_HOME = {name: sub for sub, names in _EXPORTS.items() for name in names}


def _register(sub: str):
    spec = _util.find_spec(f"{__name__}.{sub}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _sys.modules[spec.name] = _util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({sub: _register(sub) for sub in (*_EXPORTS, "rng", "_svg")})

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
