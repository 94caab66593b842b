import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import qdimer

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(qdimer.__path__))

# the whole public surface: a new name has to be added here on purpose
PUBLIC = [
    "ConcurrenceError", "ConcurrenceStack", "ConsistencyReport", "DEBYE", "EPSILON_0", "HBAR",
    "MolecularConstants", "OBSERVABLES", "ObservableTable", "Scenario", "SPEED_OF_LIGHT",
    "SystemParams", "ZenoProtocol", "analytic_survival", "catalog", "concurrence_stack",
    "consistency_report", "dephasing_rates", "dipole_coupling", "einstein_a",
    "find_first_maximum", "hamiltonian", "named_state", "population", "pure_density",
    "rabi_frequency", "run_scenario", "run_zeno", "superoperator", "__version__",
]


def test_public_surface_is_pinned():
    assert qdimer.__all__ == PUBLIC


def test_package_exports_resolve():
    missing = [name for name in qdimer.__all__ if not hasattr(qdimer, name)]
    assert missing == []


def test_import_loads_no_submodule_until_a_name_is_used():
    # each public name is imported from its home module on first use, and kept
    probe = ("import sys, qdimer\n"
             "print(*sorted(m for m in sys.modules if m.startswith('qdimer.')))\n"
             "missing = [n for n in qdimer.__all__ if not hasattr(qdimer, n)]\n"
             "print(missing, sorted(dir(qdimer)) == sorted(qdimer.__all__),\n"
             "      set(qdimer.__all__) <= set(vars(qdimer)))\n")
    src = os.path.dirname(os.path.dirname(qdimer.__file__))
    run = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert run.stdout == "\n[] True True\n"


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"qdimer.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_only_integrate_binds_the_closed_form(name):
    # the free closed form is the walk's reference, not a propagator of its own
    module = importlib.import_module(f"qdimer.{name}")
    assert hasattr(module, "closed_form_free") == (name == "integrate")
    assert not hasattr(qdimer, "closed_form_free")


RUN_VALUE_RULES = ("_is_finite_number", "_is_integer", "_shown", "_check_finite",
                   "_check_nonnegative", "_check_positive", "_check_samples")


@pytest.mark.parametrize("name", SUBMODULES)
def test_the_run_value_rules_live_in_liouville(name):
    # a module may import a rule, but a copy of its own would fork the rule
    module = importlib.import_module(f"qdimer.{name}")
    homes = {getattr(module, rule).__module__ for rule in RUN_VALUE_RULES
             if hasattr(module, rule)}
    assert homes <= {"qdimer.liouville"}
