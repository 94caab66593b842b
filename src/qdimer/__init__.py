"""Two coupled two-level molecules under pure dephasing: free, driven and
measurement-conditioned dynamics with entanglement readout.

Importing the package loads none of its submodules: a public name is imported
from its home module the first time it is looked up (PEP 562), so a command
pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "audit": ("ConsistencyReport", "consistency_report"),
    "concurrence": ("ConcurrenceError", "ConcurrenceStack", "concurrence_stack"),
    "liouville": ("SystemParams", "dephasing_rates", "hamiltonian", "superoperator"),
    "physics": ("DEBYE", "EPSILON_0", "HBAR", "SPEED_OF_LIGHT", "dipole_coupling",
                "einstein_a", "rabi_frequency"),
    "scenarios": ("OBSERVABLES", "ObservableTable", "Scenario", "ZenoSweep", "catalog",
                  "find_first_maximum", "run_scenario"),
    "states": ("named_state", "population", "pure_density"),
    "zeno": ("analytic_survival", "run_zeno"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
# classes and constants first, then functions, each in case-blind alphabetical order
__all__ = [*sorted(_HOMES, key=lambda name: (name[0].islower(), name.casefold())),
           "__version__"]


def __getattr__(name: str) -> object:
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return list(__all__)
