"""Two-qubit entanglement measured by the spin-flip concurrence.

C(rho) = max(0, s1 - s2 - s3 - s4) where s1 >= s2 >= s3 >= s4 are the square
roots of the eigenvalues of rho * rho_tilde, and rho_tilde is the
spin-flipped state (sigma_y x sigma_y) rho* (sigma_y x sigma_y) (Wootters
1998, PRL 80:2245).

The s_i are computed as singular values, never as eigenvalues of the
non-Hermitian product (Uhlmann 2000, PRA 62:032307): with rho = X X^H, where
X = V sqrt(w) comes from the Hermitian eigendecomposition rho = V diag(w) V^H,
they are the singular values of tau = X^T (sigma_y x sigma_y) X.  Singular
values are perfectly conditioned, so a rank-deficient (pure or near-pure)
state needs no noise floor: rounding in rho moves C by rounding, not by its
square root.  A state is unphysical when its lowest eigenvalue lies below
-NEG_TOL or when it departs from Hermiticity by more than IMAG_TOL; that is
raised, never silently repaired.  Negative eigenvalues within tolerance are
clipped to zero and the sample is marked clamped.

concurrence_stack makes one batched eigh and one batched svd for a whole
stack of states; LAPACK still sees one 4x4 matrix at a time, so each
sample's result is the single-state one bit for bit, and concurrence() is
its one-state case.
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

IMAG_TOL = 1e-9
NEG_TOL = 1e-9


class ConcurrenceError(ValueError):
    """rho is not a density matrix within tolerance."""


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence value plus the square-rooted spectrum of rho*rho_tilde.

    lambdas holds the four sqrt(lambda_i), descending, so that
    value = max(0, lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3])
    holds exactly.  clamped is True when a negative eigenvalue of rho
    (within tolerance) was clipped to zero.
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
    value there is NaN and error(n) is the exception it would raise.
    skew[n] is max |rho - rho^H| of state n and low[n] its lowest
    eigenvalue, which the tolerances are applied to.
    """

    values: np.ndarray
    lambdas: np.ndarray
    clamped: np.ndarray
    valid: np.ndarray
    skew: np.ndarray
    low: np.ndarray

    def error(self, n: int) -> ConcurrenceError:
        skew, low = float(self.skew.flat[n]), float(self.low.flat[n])
        if not skew <= IMAG_TOL:  # a NaN or inf entry gives a NaN skew
            return ConcurrenceError(f"rho is not Hermitian (max |rho - rho^H| = {skew:.3e})")
        return ConcurrenceError(f"negative eigenvalue {low:.3e} of rho")

    def check(self) -> None:
        """Raise the error of the first invalid sample, if there is one."""
        bad = np.flatnonzero(~self.valid)
        if bad.size:
            raise self.error(int(bad[0]))


def concurrence_stack(rhos: np.ndarray) -> ConcurrenceStack:
    """Wootters concurrence over an (N, 4, 4) stack of density matrices.

    One batched eigh, then one batched svd of tau = X^T (sigma_y x sigma_y) X.
    Never raises for unphysical samples; they are marked in ``valid``.
    One (4, 4) state gives 0-d fields.
    """
    rhos = np.asarray(rhos, dtype=complex)
    skew = np.max(np.abs(rhos - np.swapaxes(rhos, -1, -2).conj()), axis=(-2, -1))
    w, v = np.linalg.eigh(rhos)  # ascending
    low = w[..., 0]
    valid = (skew <= IMAG_TOL) & (low >= -NEG_TOL)
    clamped = low < 0.0

    x = v * np.sqrt(np.maximum(w, 0.0))[..., None, :]
    tau = np.swapaxes(x, -1, -2) @ SPIN_FLIP_KERNEL @ x
    roots = np.linalg.svd(tau, compute_uv=False)  # descending
    value = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    values = np.where(valid, np.maximum(0.0, value), np.nan)
    return ConcurrenceStack(values, roots, clamped, valid, skew, low)


def concurrence(rho: np.ndarray) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit density matrix.

    Raises ConcurrenceError if rho departs from Hermiticity by more than
    1e-9 or has an eigenvalue below -1e-9.
    """
    stack = concurrence_stack(rho)
    stack.check()
    r0, r1, r2, r3 = (float(root) for root in stack.lambdas)
    return ConcurrenceResult(
        value=float(stack.values), lambdas=(r0, r1, r2, r3), clamped=bool(stack.clamped)
    )
