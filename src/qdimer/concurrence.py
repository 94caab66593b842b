"""Two-qubit entanglement measured by the spin-flip concurrence.

C(rho) = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)) where l1 >= l2 >=
l3 >= l4 are the eigenvalues of rho * rho_tilde and rho_tilde is the
spin-flipped state (sigma_y x sigma_y) rho* (sigma_y x sigma_y).  For a valid
density matrix this spectrum is real and non-negative; departures beyond
tolerance are treated as a signal of unphysical input and raised, never
silently repaired.

The eigenvalues of the (non-Hermitian) 4x4 product are taken directly via
Hessenberg reduction plus shifted QR iteration (LAPACK zgeev through
numpy.linalg.eigvals), avoiding any matrix square root.  An independent
characteristic-polynomial solver used to cross-check this path lives in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SPIN_FLIP_KERNEL", "ConcurrenceError", "ConcurrenceResult", "spin_flip", "concurrence"]

# sigma_y (x) sigma_y: anti-diagonal (-1, +1, +1, -1)
SPIN_FLIP_KERNEL = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)

# Eigenvalues of rho*rho_tilde below this fraction of the largest one are
# rounding debris, not spectrum: for rank-deficient products (pure and
# near-pure states) the QR solver leaves zeros populated at up to ~1e4*eps
# relative, and taking their square roots would leak ~1e-6 into C.
_NOISE_FLOOR = 16384.0 * np.finfo(float).eps

IMAG_TOL = 1e-9
NEG_TOL = 1e-9


class ConcurrenceError(ValueError):
    """Spectrum of rho*rho_tilde is not physical within tolerance."""


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence value plus the square-rooted spectrum of rho*rho_tilde.

    lambdas holds the four sqrt(lambda_i), descending, so that
    value = max(0, lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3])
    holds exactly.  clamped is True when any eigenvalue needed adjustment:
    a small negative clamped to zero or a sub-noise-floor magnitude snapped
    to zero.
    """

    value: float
    lambdas: tuple[float, float, float, float]
    clamped: bool


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """Spin-flipped state (sigma_y x sigma_y) rho* (sigma_y x sigma_y)."""
    rho = np.asarray(rho, dtype=complex)
    return SPIN_FLIP_KERNEL @ rho.conj() @ SPIN_FLIP_KERNEL


def concurrence(rho: np.ndarray) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit density matrix.

    Raises ConcurrenceError if the eigenvalues of rho*rho_tilde carry
    imaginary parts above 1e-9 or negative parts below -1e-9.
    """
    rho = np.asarray(rho, dtype=complex)
    lam = np.linalg.eigvals(rho @ spin_flip(rho))

    imag_max = float(np.max(np.abs(lam.imag)))
    if imag_max > IMAG_TOL:
        raise ConcurrenceError(f"complex eigenvalue (|imag| = {imag_max:.3e}) in rho*rho_tilde")
    real = lam.real

    clamped = False
    if np.any(real < 0.0):
        low = float(real.min())
        if low < -NEG_TOL:
            raise ConcurrenceError(f"negative eigenvalue {low:.3e} in rho*rho_tilde")
        real = np.where(real < 0.0, 0.0, real)
        clamped = True

    top = float(real.max(initial=0.0))
    floor = _NOISE_FLOOR * top
    if np.any((real > 0.0) & (real < floor)):
        real = np.where(real < floor, 0.0, real)
        clamped = True

    roots = np.sqrt(np.sort(real)[::-1])
    value = float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))
    lambdas = (float(roots[0]), float(roots[1]), float(roots[2]), float(roots[3]))
    return ConcurrenceResult(value=value, lambdas=lambdas, clamped=clamped)
