"""Two coupled two-level molecules under pure dephasing: free, driven and
measurement-conditioned dynamics with entanglement readout."""

from .audit import ConsistencyReport, consistency_report
from .concurrence import ConcurrenceError, ConcurrenceStack, concurrence_stack
from .liouville import SystemParams, dephasing_rates, hamiltonian, superoperator
from .physics import (
    DEBYE,
    EPSILON_0,
    HBAR,
    SPEED_OF_LIGHT,
    MolecularConstants,
    dipole_coupling,
    einstein_a,
    rabi_frequency,
)
from .scenarios import (
    OBSERVABLES,
    ObservableTable,
    Scenario,
    catalog,
    find_first_maximum,
    run_scenario,
)
from .states import named_state, population, pure_density
from .zeno import ZenoProtocol, analytic_survival, run_zeno

__version__ = "0.1.0"

__all__ = [
    "ConcurrenceError",
    "ConcurrenceStack",
    "ConsistencyReport",
    "DEBYE",
    "EPSILON_0",
    "HBAR",
    "MolecularConstants",
    "OBSERVABLES",
    "ObservableTable",
    "Scenario",
    "SPEED_OF_LIGHT",
    "SystemParams",
    "ZenoProtocol",
    "analytic_survival",
    "catalog",
    "concurrence_stack",
    "consistency_report",
    "dephasing_rates",
    "dipole_coupling",
    "einstein_a",
    "find_first_maximum",
    "hamiltonian",
    "named_state",
    "population",
    "pure_density",
    "rabi_frequency",
    "run_scenario",
    "run_zeno",
    "superoperator",
    "__version__",
]
