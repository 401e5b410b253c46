"""Tools for characterizing, quantifying, and amplifying quantum steering.

The package is organized around four layers: states and measurement
families (`states`, `assemblages`), steering and Bell functionals with
their exact bounds and violation fractions (`functionals`,
`strategies`), convex steerability monotones with certificates
(`monotones`), and named constructions plus closed-form criteria and
planners on top (`games`, `criteria`).  `serialize` and `cli` expose the
JSON formats and the `steerkit` command.

The public names below load their submodule on first use (PEP 562), so
`import steerkit` imports neither numpy nor any submodule.  That lets the
`steerkit` command choose its BLAS threads before numpy starts.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "assemblages": (
        "Assemblage",
        "Instrument1W",
        "InstrumentBranch",
        "MeasurementFamily",
        "MembershipResult",
        "WiringMap",
        "apply_instrument",
        "lhs_membership",
        "steer",
    ),
    "criteria": (
        "AmplificationPlan",
        "BellSufficiency",
        "BellUpperBounds",
        "IsotropicThresholds",
        "SuperactivationReport",
        "amplification_plan",
        "bell_sufficient",
        "bell_upper_bounds",
        "fef_threshold",
        "harmonic",
        "isotropic_thresholds",
        "kappa",
        "lvs_upper_povm",
        "lvs_upper_projective",
        "mub_threshold",
        "superactivation_min_copies",
    ),
    "functionals": (
        "BellFunctional",
        "Correlation",
        "Fraction",
        "LocalBound",
        "LvsResult",
        "RotatedFraction",
        "SeesawResult",
        "SteeringBound",
        "SteeringFunctional",
        "best_rotated_fraction",
        "correlation_from",
        "induced_functional",
        "local_bound",
        "lv_bell_seesaw",
        "lv_s",
        "nonlocality_fraction",
        "shift_nonnegative",
        "steering_bound",
        "steering_bound_sdp",
        "steering_fraction",
    ),
    "games": (
        "KvFraction",
        "KvGame",
        "MubFamily",
        "cglmp",
        "cglmp_lv_lower",
        "kv_fraction",
        "kv_game",
        "kv_measurements",
        "mub",
        "mub_functional",
    ),
    "monotones": (
        "AuditReport",
        "AuditRow",
        "MonotoneReport",
        "PropositionReport",
        "check_proposition_robustness",
        "check_proposition_weight",
        "monotonicity_audit",
        "optimal_steering_fraction",
        "robustness_program",
        "steerable_weight",
        "steering_robustness",
    ),
    "states": (
        "DensityMatrix",
        "FefResult",
        "IsotropicState",
        "fef",
        "isotropic",
        "ket_max_entangled",
        "max_entangled",
        "random_density_matrix",
        "singlet_fidelity",
        "tensor_copies",
        "twirl",
        "twirl_monte_carlo",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
