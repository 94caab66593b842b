"""Generators of the open-system dynamics (coherent part + pure dephasing).

Two interchangeable right-hand sides are provided:

* ``derived``   -- commutator with the Hamiltonian plus the dephasing
                  dissipator, assembled from operators.  This is the default
                  and the one the analytic free-evolution solution matches.
* ``published`` -- a tabulated component form of the same equations, kept
                  for auditing.  Its rho33 row carries the opposite sign from
                  the operator derivation (all three terms of that line),
                  which breaks trace conservation; the tabulated system papers
                  over this with the closure drho44 = -(drho11 + drho22 +
                  drho33).  Those are its only differences from ``derived``,
                  so it is built as the derived matrix with row 10 (rho33)
                  negated and row 15 (rho44) rebuilt from the other
                  population rows.  The error is kept for
                  audit.consistency_report, which reads the trace the rows
                  would leak without the closure from rho33; the verbatim
                  term table it is checked against is in tests/oracles.py.

Both variants are linear and time independent for fixed parameters, so they
are materialized as 16x16 superoperator matrices acting on the row-major
vectorization of rho.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

__all__ = [
    "MAX_SAMPLES",
    "SystemParams",
    "RhsVariant",
    "hamiltonian",
    "dephasing_rates",
    "superoperator",
]

RhsVariant = Literal["derived", "published"]
_VARIANTS: tuple[str, ...] = get_args(RhsVariant)


# a series held whole (run_scenario's times and columns, run_zeno's survival curve and
# the times `zeno --out` adds) takes 8 B per entry, so Scenario and run_zeno refuse
# more: at most 80 MB a series; the audit's grid shares the cap.  `run` writes each
# block as it is walked and holds no series; there the cap bounds its time and file
MAX_SAMPLES = 10**7


# the rules of every run value, shared by the types and functions that take them
def _is_integer(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value: object) -> bool:
    # compared, not converted: float() of an int past the float range raises OverflowError
    return (_is_integer(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _shown(value: object, depth: int = 3) -> str:
    """repr(value), but an int of more than 15 digits as its first four (1.000e+400).

    A tuple, list or dict is shown element by element, and past `depth` levels of
    nesting as "...".  The digits are found by division, as str() of an int past
    4,300 digits raises.
    """
    if isinstance(value, (tuple, list, dict)):
        if depth == 0:
            return "..."
        if isinstance(value, dict):
            inner = ", ".join(f"{_shown(k)}: {_shown(v, depth - 1)}" for k, v in value.items())
            return "{" + inner + "}"
        inner = ", ".join(_shown(v, depth - 1) for v in value)
        if isinstance(value, list):
            return f"[{inner}]"
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    if not (_is_integer(value) and abs(value) >= 10**15):
        return repr(value)
    shift = int(math.log10(abs(value))) - 3  # the float log10 may be one off either way
    lead = abs(value) // 10**shift
    if lead < 1000:
        shift -= 1
        lead = abs(value) // 10**shift
    if lead >= 10000:
        shift += 1
        lead //= 10
    return f"{'-' * (value < 0)}{lead // 1000}.{lead % 1000:03d}e+{shift + 3}"


def _check_finite(**values: object) -> None:
    """Refuse, by its name, the first value that is not a finite number."""
    for name, value in values.items():
        if not _is_finite_number(value):
            raise ValueError(f"{name} must be a finite number, got {_shown(value)}")


def _check_nonnegative(**values: object) -> None:
    """Refuse, by its name, the first value that is not a finite number >= 0."""
    for name, value in values.items():
        _check_finite(**{name: value})
        if value < 0.0:
            raise ValueError(f"{name} must be >= 0, got {_shown(value)}")


def _check_positive(name: str, value: object) -> None:
    """Refuse a value that is not a finite number above 0."""
    if not (_is_finite_number(value) and value > 0.0):
        raise ValueError(f"{name} must be > 0, got {_shown(value)}")


def _check_samples(samples: object) -> None:
    """Refuse a sample count that is not an integer from 2 to MAX_SAMPLES."""
    if not _is_integer(samples):
        raise ValueError(f"samples must be an integer, got {_shown(samples)}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {_shown(samples)}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"{_shown(samples)} samples are above the cap of {MAX_SAMPLES}")


@dataclass(frozen=True)
class SystemParams:
    """Rates defining one run, all in rad/s (gamma in 1/s).

    omega0   inversion-doublet splitting
    delta_l  drive detuning (rotating frame); must be 0 when driven is False
    J        dipole-dipole exchange rate
    Omega    drive Rabi rate; must be 0 when driven is False
    gamma    single-molecule pure-dephasing rate
    driven   True selects the rotating frame (diagonal uses delta_l);
             False selects free evolution (diagonal uses omega0)
    """

    omega0: float
    J: float
    gamma: float
    Omega: float = 0.0
    delta_l: float = 0.0
    driven: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.driven, bool):
            raise ValueError(f"driven must be True or False, got {_shown(self.driven)}")
        _check_nonnegative(omega0=self.omega0, J=self.J, gamma=self.gamma, Omega=self.Omega)
        _check_finite(delta_l=self.delta_l)
        if not self.driven and self.Omega != 0.0:
            raise ValueError("Omega must be 0 when driven is False")
        if not self.driven and self.delta_l != 0.0:
            raise ValueError("delta_l must be 0 when driven is False")

    def splitting(self) -> float:
        """Diagonal splitting actually entering the generator."""
        return self.delta_l if self.driven else self.omega0


def hamiltonian(params: SystemParams) -> np.ndarray:
    """Hamiltonian over hbar in the bare basis (units rad/s).

    Diagonal (-D, 0, 0, +D) with D the active splitting, exchange J on the
    single-excitation pair, and the drive Omega on every single-flip element.
    """
    d = params.splitting()
    j = params.J
    w = params.Omega
    return np.array(
        [
            [-d, w, w, 0.0],
            [w, 0.0, j, w],
            [w, j, 0.0, w],
            [0.0, w, w, d],
        ],
        dtype=complex,
    )


def dephasing_rates(gamma: float) -> np.ndarray:
    """Element-wise decay-rate matrix of the pure-dephasing dissipator.

    Diagonal elements are untouched, single-flip coherences decay at gamma,
    double-flip coherences (1,4) and (2,3) at 2*gamma.
    """
    _check_nonnegative(gamma=gamma)
    # sigma_z eigenvalues per molecule in the bare ordering
    z1 = np.array([-1.0, -1.0, 1.0, 1.0])
    z2 = np.array([-1.0, 1.0, -1.0, 1.0])
    with np.errstate(over="ignore"):
        rate = 0.5 * gamma * (2.0 - np.outer(z1, z1) - np.outer(z2, z2))
    if not np.all(np.isfinite(rate)):
        raise ValueError(f"the dephasing rates of gamma={gamma:g} s^-1 overflow")
    return rate


def superoperator(variant: RhsVariant, params: SystemParams) -> np.ndarray:
    """16x16 matrix L with d vec(rho)/dt = L vec(rho) (row-major vec)."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown rhs variant {variant!r}; expected one of {_VARIANTS}")
    h = hamiltonian(params)
    eye = np.eye(4, dtype=complex)
    # rates that are finite one by one can still give entries that overflow
    with np.errstate(over="ignore", invalid="ignore"):
        lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        lv -= np.diag(dephasing_rates(params.gamma).reshape(16).astype(complex))
        if variant == "published":
            lv[10] = -lv[10]  # the tabulated rho33 line, every term sign-flipped
            lv[15] = -(lv[0] + lv[5] + lv[10])  # the closure drho44 = -(drho11 + drho22 + drho33)
    if not np.all(np.isfinite(lv)):
        split = "delta_l" if params.driven else "omega0"
        raise ValueError(f"the {variant} generator overflows at {split}={params.splitting():g}, "
                         f"J={params.J:g}, Omega={params.Omega:g}, gamma={params.gamma:g} s^-1")
    return lv
