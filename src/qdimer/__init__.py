"""Two coupled two-level molecules under pure dephasing: free, driven and
measurement-conditioned dynamics with entanglement readout."""

from .audit import ConsistencyReport, consistency_report
from .concurrence import (
    ConcurrenceError,
    ConcurrenceResult,
    ConcurrenceStack,
    concurrence,
    concurrence_stack,
    spin_flip,
)
from .integrate import IntegrationConfig, StepCounts, Trajectory, closed_form_free, integrate
from .liouville import (
    SystemParams,
    dephasing,
    dephasing_rates,
    hamiltonian,
    rhs,
    superoperator,
)
from .physics import (
    DEBYE,
    EPSILON_0,
    HBAR,
    SPEED_OF_LIGHT,
    MolecularConstants,
    debye_to_cm,
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
from .states import (
    named_state,
    population,
    pure_density,
    to_entangled_basis,
    validate_density_matrix,
)
from .zeno import ZenoProtocol, ZenoResult, analytic_survival, run_zeno

__version__ = "0.1.0"

__all__ = [
    "ConcurrenceError",
    "ConcurrenceResult",
    "ConcurrenceStack",
    "ConsistencyReport",
    "DEBYE",
    "EPSILON_0",
    "HBAR",
    "IntegrationConfig",
    "MolecularConstants",
    "OBSERVABLES",
    "ObservableTable",
    "Scenario",
    "SPEED_OF_LIGHT",
    "SystemParams",
    "StepCounts",
    "Trajectory",
    "ZenoProtocol",
    "ZenoResult",
    "analytic_survival",
    "catalog",
    "closed_form_free",
    "concurrence",
    "concurrence_stack",
    "consistency_report",
    "debye_to_cm",
    "dephasing",
    "dephasing_rates",
    "dipole_coupling",
    "einstein_a",
    "find_first_maximum",
    "hamiltonian",
    "integrate",
    "named_state",
    "population",
    "pure_density",
    "rabi_frequency",
    "rhs",
    "run_scenario",
    "run_zeno",
    "spin_flip",
    "superoperator",
    "to_entangled_basis",
    "validate_density_matrix",
    "__version__",
]
