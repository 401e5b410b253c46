"""Cold start of the package: lazy public names and the CLI's BLAS default.

Each check runs in a fresh interpreter, because the package and numpy are
already loaded in the test process.  The last check only parses the
sources: no module of the package imports a name it never uses.
"""

import ast
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


# the functions that bench/spans.py wraps as `steerkit.cli.<name>`, by home module
CLI_NAMES = {
    "assemblages": "steer",
    "functionals": "lv_s steering_bound",
    "games": "kv_fraction kv_game",
    "monotones": "optimal_steering_fraction steerable_weight steering_robustness",
    "serialize": "decode_assemblage decode_bell decode_correlation decode_functional "
    "decode_measurements decode_state encode_assemblage encode_bell encode_functional "
    "encode_matrix encode_measurements load_json render_report",
    "states": "fef",
}
CRITERIA_NAMES = {"functionals": "lv_s"}
CRITERIA_ARGV = {
    "thresholds": ["--d", "999500"],
    "upper-bounds": ["--d", "500"],
    "amplify": ["--eps", "0.55", "--delta", "3.0"],
    "superactivate": ["--d", "5", "--p", "0.7"],
}


def run_fresh(tmp_path, argv):
    """Run `steerkit.cli.run(argv)` with --out in a new interpreter; return
    its exit code and the modules it loaded."""
    out = str(tmp_path / "report.json")
    code = f"import steerkit.cli\ncode = steerkit.cli.run({argv!r} + ['--out', {out!r}])\n"
    return fresh(code + f"print(json.dumps([code, {LOADED}]))")


class TestCliImports:
    @pytest.mark.parametrize("name", sorted(CRITERIA_ARGV))
    def test_criteria_planners_load_no_numpy(self, tmp_path, name):
        code, loaded = run_fresh(tmp_path, ["criteria", name, *CRITERIA_ARGV[name]])
        assert code == 0
        assert loaded == ["steerkit.cli", "steerkit.criteria", "steerkit.report"]

    @pytest.mark.parametrize("argv, unloaded", [
        (["steer", "--state", "{iso}", "--measurements", "{fam}"], "criteria functionals games monotones sdp"),
        (["fef", "--state", "{iso}"], "criteria functionals games monotones sdp"),
        (["twirl", "--state", "{iso}"], "criteria functionals games monotones sdp"),
        (["monotone", "--assemblage", "{sig}"], "criteria functionals games"),
    ], ids=["steer", "fef", "twirl", "monotone"])
    def test_commands_skip_modules_they_do_not_call(self, tmp_path, argv, unloaded):
        from steerkit.assemblages import steer
        from steerkit.games import mub
        from steerkit.serialize import encode_assemblage, encode_measurements
        from steerkit.states import isotropic

        family = mub(2, 2).to_measurements()
        files = {
            "iso": {"isotropic": {"d": 2, "p": 0.9}},
            "fam": encode_measurements(family),
            "sig": encode_assemblage(steer(isotropic(2, 0.9), family)),
        }
        paths = {}
        for key, payload in files.items():
            paths[key] = tmp_path / f"{key}.json"
            paths[key].write_text(json.dumps(payload))
        code, loaded = run_fresh(tmp_path, [arg.format(**paths) for arg in argv])
        assert code == 0
        assert "numpy" in loaded
        assert not {f"steerkit.{module}" for module in unloaded.split()} & set(loaded)

    def test_names_resolve_to_their_home_objects(self):
        code = f"""
import importlib, steerkit.cli, steerkit.criteria
same = {{}}
for owner, table in (("cli", {CLI_NAMES!r}), ("criteria", {CRITERIA_NAMES!r})):
    for module, names in table.items():
        home = importlib.import_module("steerkit." + module)
        for name in names.split():
            same[owner + "." + name] = getattr(getattr(steerkit, owner), name) is getattr(home, name)
print(json.dumps(same))
"""
        expected = [
            f"{owner}.{name}"
            for owner, table in (("cli", CLI_NAMES), ("criteria", CRITERIA_NAMES))
            for names in table.values() for name in names.split()
        ]
        assert fresh(code) == dict.fromkeys(expected, True)

    @pytest.mark.parametrize("module", ["cli", "criteria"])
    def test_unknown_name_raises(self, module):
        code = f"""
import steerkit.{module} as mod
try:
    mod.nope
    raised = False
except AttributeError:
    raised = True
print(json.dumps(raised))
"""
        assert fresh(code) is True

    def test_serialize_reexports_the_report_functions(self):
        from steerkit import report, serialize

        for name in ("jsonify", "render_report", "load_json"):
            assert getattr(serialize, name) is getattr(report, name)


def _module_imports(tree: ast.Module):
    """(line, bound name) of each import at module level, `if` blocks
    (TYPE_CHECKING among them) included and `from __future__` skipped."""
    body = list(tree.body)
    while body:
        node = body.pop(0)
        if isinstance(node, ast.If):
            body[:0] = node.body + node.orelse
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _used_names(tree: ast.Module) -> set:
    """Every name the module reads, plus the names a literal `__all__` lists."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return used


@pytest.mark.parametrize("path", sorted(Path(SRC, "steerkit").glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{path.name}:{line} {name}" for line, name in _module_imports(tree) if name not in used]
    assert unused == []
