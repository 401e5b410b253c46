"""Cold start of the package: lazy public names and the CLI's BLAS default.

Each check runs in a fresh interpreter, because the package and numpy are
already loaded in the test process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steerkit

SRC = str(Path(steerkit.__file__).resolve().parents[1])
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# the public names of the package, by the submodule that defines them
EXPORTS = {
    "assemblages": "Assemblage Instrument1W InstrumentBranch MeasurementFamily MembershipResult "
    "WiringMap apply_instrument lhs_membership steer",
    "criteria": "AmplificationPlan BellSufficiency BellUpperBounds IsotropicThresholds "
    "SuperactivationReport amplification_plan bell_sufficient bell_upper_bounds fef_threshold "
    "harmonic isotropic_thresholds kappa lvs_upper_povm lvs_upper_projective mub_threshold "
    "superactivation_min_copies",
    "functionals": "BellFunctional Correlation Fraction LocalBound LvsResult RotatedFraction "
    "SeesawResult SteeringBound SteeringFunctional best_rotated_fraction correlation_from "
    "induced_functional local_bound lv_bell_seesaw lv_s nonlocality_fraction shift_nonnegative "
    "steering_bound steering_bound_sdp steering_fraction",
    "games": "KvFraction KvGame MubFamily cglmp cglmp_lv_lower kv_fraction kv_game "
    "kv_measurements mub mub_functional",
    "monotones": "AuditReport AuditRow MonotoneReport PropositionReport RobustnessProgram "
    "check_proposition_robustness check_proposition_weight monotonicity_audit "
    "optimal_steering_fraction robustness_program steerable_weight steering_robustness",
    "states": "DensityMatrix FefResult IsotropicState fef isotropic ket_max_entangled "
    "max_entangled random_density_matrix singlet_fidelity tensor_copies twirl twirl_monte_carlo",
}

LOADED = "[m for m in sorted(sys.modules) if m == 'numpy' or m.startswith('steerkit.')]"


def fresh(code: str, **env_vars):
    """Run `code` in a new interpreter without BLAS variables unless given;
    return the JSON it prints."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(env_vars)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


class TestLazyNames:
    def test_import_loads_neither_numpy_nor_submodules(self):
        assert fresh(f"import steerkit\nprint(json.dumps({LOADED}))") == []

    def test_names_resolve_to_their_submodule_objects(self):
        code = f"""
import importlib, steerkit
exports = {EXPORTS!r}
same = {{
    name: getattr(steerkit, name) is getattr(importlib.import_module("steerkit." + module), name)
    for module, names in exports.items() for name in names.split()
}}
print(json.dumps([sorted(steerkit.__all__), same, steerkit.__version__]))
"""
        names, same, version = fresh(code)
        expected = sorted(name for names in EXPORTS.values() for name in names.split())
        assert names == expected
        assert same == dict.fromkeys(expected, True)
        assert version == "0.1.0"

    def test_dir_lists_the_names(self):
        listed = set(fresh("import steerkit\nprint(json.dumps(dir(steerkit)))"))
        expected = {name for names in EXPORTS.values() for name in names.split()}
        assert expected | {"__version__"} <= listed

    def test_unknown_name_raises_without_importing(self):
        code = f"""
import steerkit
try:
    steerkit.nope
    raised = False
except AttributeError:
    raised = True
print(json.dumps([raised, {LOADED}]))
"""
        assert fresh(code) == [True, []]

    def test_submodule_import_loads_only_what_it_needs(self):
        code = "from steerkit import sdp\nprint(json.dumps(sorted(sys.modules)))"
        loaded = fresh(code)
        assert "steerkit.sdp" in loaded
        assert "steerkit.monotones" not in loaded
        assert "steerkit.criteria" not in loaded


class TestCliBlasThreads:
    @pytest.mark.parametrize(
        "env_vars, expected",
        [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3"), ({"OMP_NUM_THREADS": "2"}, None)],
        ids=["unset", "openblas-set", "omp-set"],
    )
    def test_cli_import_sets_one_thread_unless_chosen(self, env_vars, expected):
        code = "import os, steerkit.cli\nprint(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))"
        assert fresh(code, **env_vars) == expected
