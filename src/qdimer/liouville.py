"""Generators of the open-system dynamics (coherent part + pure dephasing).

Two interchangeable right-hand sides are provided:

* ``derived``   -- commutator with the Hamiltonian plus the dephasing
                  dissipator, assembled from operators.  This is the default
                  and the one the analytic free-evolution solution matches.
* ``published`` -- a verbatim transcription of a tabulated component form of
                  the same equations that is kept for auditing.  Its rho33 row
                  carries the opposite sign from the operator derivation (all
                  three terms of that line), which breaks trace conservation;
                  the tabulated system papers over this with the closure
                  drho44 = -(drho11 + drho22 + drho33).  The transcription is
                  intentionally left uncorrected so the discrepancy can be
                  demonstrated; see audit.consistency_report.

Both variants are linear and time independent for fixed parameters, so they
are materialized as 16x16 superoperator matrices acting on the row-major
vectorization of rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

__all__ = [
    "SystemParams",
    "RhsVariant",
    "hamiltonian",
    "dephasing",
    "dephasing_rates",
    "superoperator",
    "rhs",
]

RhsVariant = Literal["derived", "published"]
_VARIANTS = ("derived", "published")


@dataclass(frozen=True)
class SystemParams:
    """Rates defining one run, all in rad/s (gamma in 1/s).

    omega0   inversion-doublet splitting
    delta_l  drive detuning (rotating frame); only meaningful when driven
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
            raise ValueError(f"driven must be True or False, got {self.driven!r}")
        for name in ("omega0", "J", "gamma", "Omega", "delta_l"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name != "delta_l" and value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not self.driven and self.Omega != 0.0:
            raise ValueError("Omega must be 0 when driven is False")

    def splitting(self) -> float:
        """Diagonal splitting actually entering the generator."""
        return self.delta_l if self.driven else self.omega0

    def fastest_rate(self) -> float:
        """Largest rate in the parameter set."""
        return max(abs(self.splitting()), self.J, self.Omega, self.gamma)


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
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    # sigma_z eigenvalues per molecule in the bare ordering
    z1 = np.array([-1.0, -1.0, 1.0, 1.0])
    z2 = np.array([-1.0, 1.0, -1.0, 1.0])
    rate = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            rate[i, j] = 0.5 * gamma * (2.0 - z1[i] * z1[j] - z2[i] * z2[j])
    return rate


def dephasing(rho: np.ndarray, gamma: float) -> np.ndarray:
    """Pure-dephasing dissipator applied to rho: -rate_ij * rho_ij."""
    return -dephasing_rates(gamma) * np.asarray(rho, dtype=complex)


def _derived_superoperator(params: SystemParams) -> np.ndarray:
    h = hamiltonian(params)
    eye = np.eye(4, dtype=complex)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    lv -= np.diag(dephasing_rates(params.gamma).reshape(16).astype(complex))
    return lv


# Verbatim term tables for the tabulated ("published") component form.  Each
# row of rho's derivative is a list of (coefficient, source element) pairs;
# coefficients are multiples of i*Omega, i*J, i*Delta and gamma.  Only the
# upper triangle plus (1,1), (2,2), (3,3) are transcribed; (4,4) is the
# closure row and the lower triangle is the conjugate mirror.
def _published_upper_terms(params: SystemParams) -> dict[tuple[int, int], list[tuple[complex, tuple[int, int]]]]:
    iw = 1j * params.Omega
    ij = 1j * params.J
    idl = 1j * params.splitting()
    g = params.gamma
    return {
        # drho11 = -iW(r31 - r13 + r21 - r12)
        (0, 0): [(-iw, (2, 0)), (iw, (0, 2)), (-iw, (1, 0)), (iw, (0, 1))],
        # drho22 = -iW(r12 - r21 + r42 - r24) - iJ(r32 - r23)
        (1, 1): [(-iw, (0, 1)), (iw, (1, 0)), (-iw, (3, 1)), (iw, (1, 3)),
                 (-ij, (2, 1)), (ij, (1, 2))],
        # drho33 = -iW(r31 - r13 + r34 - r43) - iJ(r32 - r23)
        (2, 2): [(-iw, (2, 0)), (iw, (0, 2)), (-iw, (2, 3)), (iw, (3, 2)),
                 (-ij, (2, 1)), (ij, (1, 2))],
        # drho12 = iD r12 - iW(r22 - r11 + r32 - r14) + iJ r13 - g r12
        (0, 1): [(idl - g, (0, 1)), (-iw, (1, 1)), (iw, (0, 0)), (-iw, (2, 1)),
                 (iw, (0, 3)), (ij, (0, 2))],
        # drho13 = iD r13 - iW(r33 - r11 + r23 - r14) + iJ r12 - g r13
        (0, 2): [(idl - g, (0, 2)), (-iw, (2, 2)), (iw, (0, 0)), (-iw, (1, 2)),
                 (iw, (0, 3)), (ij, (0, 1))],
        # drho14 = 2iD r14 - iW(r34 + r24 - r12 - r13) - 2g r14
        (0, 3): [(2.0 * idl - 2.0 * g, (0, 3)), (-iw, (2, 3)), (-iw, (1, 3)),
                 (iw, (0, 1)), (iw, (0, 2))],
        # drho23 = -iW(r13 + r43 - r24 - r21) - iJ(r33 - r22) - 2g r23
        (1, 2): [(-iw, (0, 2)), (-iw, (3, 2)), (iw, (1, 3)), (iw, (1, 0)),
                 (-ij, (2, 2)), (ij, (1, 1)), (-2.0 * g, (1, 2))],
        # drho24 = iD r24 + iW(r22 + r23 - r44 - r14) - iJ r34 - g r24
        (1, 3): [(idl - g, (1, 3)), (iw, (1, 1)), (iw, (1, 2)), (-iw, (3, 3)),
                 (-iw, (0, 3)), (-ij, (2, 3))],
        # drho34 = iD r34 + iW(r33 + r32 - r44 - r14) - iJ r24 - g r34
        (2, 3): [(idl - g, (2, 3)), (iw, (2, 2)), (iw, (2, 1)), (-iw, (3, 3)),
                 (-iw, (0, 3)), (-ij, (1, 3))],
    }


def _published_superoperator(params: SystemParams, closure: bool = True) -> np.ndarray:
    lv = np.zeros((16, 16), dtype=complex)

    def row_index(i: int, j: int) -> int:
        return 4 * i + j

    terms = _published_upper_terms(params)
    for (i, j), pairs in terms.items():
        r = row_index(i, j)
        for coeff, (a, b) in pairs:
            lv[r, row_index(a, b)] += coeff
    # Lower triangle: d(rho_ji) = conj(d(rho_ij)) term by term, so each
    # coefficient conjugates and each source element transposes.
    for (i, j), pairs in terms.items():
        if i == j:
            continue
        r = row_index(j, i)
        for coeff, (a, b) in pairs:
            lv[r, row_index(b, a)] += np.conj(coeff)
    r44 = row_index(3, 3)
    if closure:
        lv[r44] = -(lv[row_index(0, 0)] + lv[row_index(1, 1)] + lv[row_index(2, 2)])
    else:
        # The tabulated form has no drho44 line of its own; complete it with
        # the operator-derived row so the rho33 transcription error shows up
        # as raw trace drift instead of being hidden by the closure.
        lv[r44] = _derived_superoperator(params)[r44]
    return lv


def superoperator(variant: RhsVariant, params: SystemParams, *, closure: bool = True) -> np.ndarray:
    """16x16 matrix L with d vec(rho)/dt = L vec(rho) (row-major vec)."""
    if variant == "derived":
        return _derived_superoperator(params)
    if variant == "published":
        return _published_superoperator(params, closure=closure)
    raise ValueError(f"unknown rhs variant {variant!r}; expected one of {_VARIANTS}")


def rhs(variant: RhsVariant, rho: np.ndarray, params: SystemParams) -> np.ndarray:
    """Time derivative of rho under the chosen generator variant."""
    lv = superoperator(variant, params)
    drho = lv @ np.asarray(rho, dtype=complex).reshape(16)
    return drho.reshape(4, 4)
