"""The package namespace: every public name, loaded on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bailrule

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = """
AllocationProblem AllocationResult BailruleError BetaShock ComparativeStatics ConfigError
CustomFloor Cutoffs DataError DiscreteThreshold EXTRA_KINK Episode EpisodeTable
EstimationError FiniteLegislature KktResiduals MarginalBenefit MechanismParams
NumericalInconsistencyError OverrideReport ParallelFloor ParameterError PiecewiseRegimeError
PoliticalCostSpec SC_DOMINATED SC_PARALLEL Schedule ShiftAttribution ShockDistribution TlcFit
TruncatedExponentialShock UniformShock UniformThreshold WeightProfile WelfareWedge
activation_derivative aggregate_support allocate allocation_objective apply_equity_floor
attribute_shift bundle_check cap_ordering_report classify_against_schedule classify_floor
comparative_statics consent_cap_analytic cutoffs delta_theta_hi detect_override_shift
empirical_cap fit_tlc hazard kkt_residuals knife_edge political_cost predict screened_payout
tlc_policy_general tlc_policy_linear welfare_wedge_shift
""".split()


def test_public_names_are_unchanged():
    assert bailrule.__all__ == sorted(PUBLIC)


@pytest.mark.parametrize("first", ["fit_tlc", "errors"], ids=["name", "submodule"])
def test_import_loads_no_submodule_until_a_name_is_used(first):
    code = (
        "import sys, bailrule\n"
        "loaded = lambda: sorted(m for m in sys.modules if m == 'numpy' or m.startswith('bailrule.'))\n"
        "print(loaded())\n"
        f"bailrule.{first}\n"
        "print('numpy' in loaded(), set(bailrule.__all__) <= vars(bailrule).keys())\n"
        "print('__getattr__' in vars(bailrule))\n"
        "from bailrule import *\n"
        "print(all(globals()[n] is getattr(bailrule, n) for n in bailrule.__all__))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "True True", "False", "True", ""]


def test_each_name_is_its_defining_module_object():
    for module, names in bailrule._EXPORTS.items():
        mod = importlib.import_module(f"bailrule.{module}")
        assert getattr(bailrule, module) is mod
        for name in names:
            obj = getattr(bailrule, name)
            assert obj is getattr(mod, name), name
            if callable(obj):
                assert obj.__module__ == mod.__name__, name
    assert bailrule.fit_tlc is bailrule.estimation.fit_tlc


def test_dir_lists_every_name_and_submodule():
    listed = set(dir(bailrule))
    assert set(PUBLIC) <= listed
    assert set(bailrule._EXPORTS) <= listed
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'bailrule' has no attribute 'fit_tl'"):
        bailrule.fit_tl
    assert not hasattr(bailrule, "_private")
