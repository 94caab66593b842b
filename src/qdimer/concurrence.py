"""Two-qubit entanglement measured by the spin-flip concurrence.

C(rho) = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)) where l1 >= l2 >=
l3 >= l4 are the eigenvalues of rho * rho_tilde and rho_tilde is the
spin-flipped state (sigma_y x sigma_y) rho* (sigma_y x sigma_y).  For a valid
density matrix this spectrum is real and non-negative; departures beyond
tolerance are treated as a signal of unphysical input and raised, never
silently repaired.

The eigenvalues of the (non-Hermitian) 4x4 product are taken directly via
Hessenberg reduction plus shifted QR iteration (LAPACK zgeev through
numpy.linalg.eigvals), avoiding any matrix square root.  concurrence_stack
makes one batched call for a whole stack of states; LAPACK still sees one
4x4 matrix at a time, so each sample's result is the single-state one bit
for bit, and concurrence() is its one-state case.  An independent
characteristic-polynomial solver used to cross-check this path lives in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SPIN_FLIP_KERNEL",
    "ConcurrenceError",
    "ConcurrenceResult",
    "ConcurrenceStack",
    "spin_flip",
    "concurrence",
    "concurrence_stack",
]

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
    """Spin-flipped state (sigma_y x sigma_y) rho* (sigma_y x sigma_y).

    rho may be one (4, 4) state or an (N, 4, 4) stack.
    """
    rho = np.asarray(rho, dtype=complex)
    return SPIN_FLIP_KERNEL @ rho.conj() @ SPIN_FLIP_KERNEL


@dataclass(frozen=True, eq=False)
class ConcurrenceStack:
    """Concurrence of every state in a stack, sample by sample.

    Entries follow ConcurrenceResult: values[n] and lambdas[n] (descending
    sqrt(lambda_i)) are what concurrence() gives for state n, and clamped[n]
    its clamp flag.  valid[n] is False where concurrence() would raise; the
    value there is NaN and error(n) is the exception it would raise;
    imag_max[n] and low[n] are the largest |imaginary part| and the lowest
    real part of its raw spectrum, which the tolerances are applied to.
    """

    values: np.ndarray
    lambdas: np.ndarray
    clamped: np.ndarray
    valid: np.ndarray
    imag_max: np.ndarray
    low: np.ndarray

    def error(self, n: int) -> ConcurrenceError:
        imag_max, low = float(self.imag_max.flat[n]), float(self.low.flat[n])
        if imag_max > IMAG_TOL:
            return ConcurrenceError(f"complex eigenvalue (|imag| = {imag_max:.3e}) in rho*rho_tilde")
        return ConcurrenceError(f"negative eigenvalue {low:.3e} in rho*rho_tilde")

    def check(self) -> None:
        """Raise the error of the first invalid sample, if there is one."""
        bad = np.flatnonzero(~self.valid)
        if bad.size:
            raise self.error(int(bad[0]))


def concurrence_stack(rhos: np.ndarray) -> ConcurrenceStack:
    """Wootters concurrence over an (N, 4, 4) stack of density matrices.

    One batched eigenvalue call, then per sample the tolerances, clamping
    and noise floor of concurrence().  Never raises for unphysical samples;
    they are marked in ``valid``.  One (4, 4) state gives 0-d fields.
    """
    rhos = np.asarray(rhos, dtype=complex)
    lam = np.linalg.eigvals(rhos @ spin_flip(rhos))

    imag_max = np.max(np.abs(lam.imag), axis=-1)
    real = lam.real
    low = np.min(real, axis=-1)
    valid = ~((imag_max > IMAG_TOL) | (low < -NEG_TOL))

    negative = real < 0.0
    clamped = np.any(negative, axis=-1)
    real = np.where(negative, 0.0, real)

    floor = _NOISE_FLOOR * np.max(real, axis=-1, initial=0.0)[..., None]
    snap = np.any((real > 0.0) & (real < floor), axis=-1)
    real = np.where(snap[..., None] & (real < floor), 0.0, real)
    clamped |= snap

    roots = np.sqrt(np.sort(real, axis=-1)[..., ::-1])
    value = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    values = np.where(valid, np.maximum(0.0, value), np.nan)
    return ConcurrenceStack(values, roots, clamped, valid, imag_max, low)


def concurrence(rho: np.ndarray) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit density matrix.

    Raises ConcurrenceError if the eigenvalues of rho*rho_tilde carry
    imaginary parts above 1e-9 or negative parts below -1e-9.
    """
    stack = concurrence_stack(rho)
    stack.check()
    r0, r1, r2, r3 = (float(root) for root in stack.lambdas)
    return ConcurrenceResult(
        value=float(stack.values), lambdas=(r0, r1, r2, r3), clamped=bool(stack.clamped)
    )
