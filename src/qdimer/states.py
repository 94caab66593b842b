"""States, bases and populations for a pair of coupled two-level molecules.

Bare product basis, in this fixed order:

    index 0: |1> = |g1 g2>
    index 1: |2> = |g1 e2>
    index 2: |3> = |e1 g2>
    index 3: |4> = |e1 e2>

Named on top of it are the maximally-entangled states (p, s, a, q):

    |s> = (|2> + |3>)/sqrt(2)      symmetric single excitation
    |a> = (|2> - |3>)/sqrt(2)      antisymmetric single excitation
    |p> = (|1> + |4>)/sqrt(2)
    |q> = (|1> - |4>)/sqrt(2)

plus the circular pair |f> = (|2> + i|3>)/sqrt(2), |k> = (|2> - i|3>)/sqrt(2)
and the localized products L/R of the inversion doublet (|L>, |R> are the
left/right-localized superpositions of |g>, |e> on each molecule).

All states are plain complex ndarrays of shape (4,); density matrices are
complex ndarrays of shape (4, 4), and a trajectory is an (N, 4, 4) stack of
them, which observables take whole and the propagator yields in blocks of
BLOCK states.  rho is never transformed to another basis: a named state's
share of it is read by `population`.  No wrapper classes -- pure_density and
population validate what they are given.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

__all__ = [
    "NAMED_STATES",
    "named_state",
    "pure_density",
    "population",
    "BLOCK",
    "blocks",
]

_SQ2 = math.sqrt(0.5)

# Amplitude tables in the bare basis.  The localized products follow the
# literal sign convention of the entangled-basis identities
#   |s> = (|L1L2> - |R1R2>)/sqrt(2),  |a> = (|L1R2> - |R1L2>)/sqrt(2),
#   |p> = (|L1L2> + |R1R2>)/sqrt(2),  |q> = (|L1R2> + |R1L2>)/sqrt(2).
NAMED_STATES: dict[str, tuple[complex, complex, complex, complex]] = {
    "g1g2": (1.0, 0.0, 0.0, 0.0),
    "g1e2": (0.0, 1.0, 0.0, 0.0),
    "e1g2": (0.0, 0.0, 1.0, 0.0),
    "e1e2": (0.0, 0.0, 0.0, 1.0),
    "s": (0.0, _SQ2, _SQ2, 0.0),
    "a": (0.0, _SQ2, -_SQ2, 0.0),
    "p": (_SQ2, 0.0, 0.0, _SQ2),
    "q": (_SQ2, 0.0, 0.0, -_SQ2),
    "f": (0.0, _SQ2, _SQ2 * 1j, 0.0),
    "k": (0.0, _SQ2, -_SQ2 * 1j, 0.0),
    "L1L2": (0.5, 0.5, 0.5, 0.5),
    "R1R2": (0.5, -0.5, -0.5, 0.5),
    "L1R2": (0.5, 0.5, -0.5, -0.5),
    "R1L2": (0.5, -0.5, 0.5, -0.5),
}


def named_state(name: str) -> np.ndarray:
    """Return the amplitude vector of a named pure state (shape (4,), complex)."""
    try:
        amps = NAMED_STATES[name]
    except KeyError:
        valid = ", ".join(sorted(NAMED_STATES))
        raise ValueError(f"unknown state name {name!r}; valid names: {valid}") from None
    return np.array(amps, dtype=complex)


def _checked_state(psi: np.ndarray) -> np.ndarray:
    """psi as a complex (4,) vector, refused unless its norm is within 1e-9 of 1."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (4,):
        raise ValueError(f"expected shape (4,), got {psi.shape}")
    norm_err = abs(float(np.vdot(psi, psi).real) - 1.0)
    if not norm_err <= 1e-9:  # a NaN fails this too
        raise ValueError(f"state is not normalized: |<psi|psi> - 1| = {norm_err:.3e}")
    return psi


def pure_density(psi: np.ndarray) -> np.ndarray:
    """Density matrix |psi><psi| of a normalized amplitude vector (`_checked_state`)."""
    psi = _checked_state(psi)
    return np.outer(psi, psi.conj())


_POP_TOL = 1e-9

# Trajectories are propagated, evaluated and written this many states at a
# time: one batched call per block keeps the per-call overhead low, and a
# block (64 KiB of states) is all of the trajectory a run holds.  Measured on
# a 2-vCPU x86-64 host: the traced peak of run_scenario(free_LL) above its
# table is 447 KiB (778 at 512 states, 282 at 128, 197 at 64) and that of
# emit_csv is 126 KiB (247 at 512); `qdimer run` peaks at 32.09 MB of RSS on
# free_LL and free_LR (32.47 at 512) and 31.94 MB on free_eg (32.37).  256 is
# the largest block at that floor: 128 gives the same peak RSS, and 64 raises
# both the peak RSS and the run time of free_LL (run times from 128 to 512 lie
# within the host's spread).
# Taking each block's time steps as the walk reaches it brings free_LL's
# figure to 410 KiB; a 50,001-sample free_LR run traces 65 B per sample and
# 200,001 samples peak at 43.1 MB of RSS.  Formatting each block in numpy
# (`csvtext`) brings emit_csv's figure to 138 KiB.
BLOCK = 256


def blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most BLOCK samples that cover range(n)."""
    for start in range(0, n, BLOCK):
        yield slice(start, min(start + BLOCK, n))


def population(rho: np.ndarray, psi: np.ndarray) -> float | np.ndarray:
    """Population <psi| rho |psi> of a normalized pure state (`_checked_state`).

    rho is one (4, 4) state, giving a float, or an (N, 4, 4) stack, giving
    one population per state, checked by `_checked_populations`.
    """
    psi = _checked_state(psi)
    amps = np.matmul(np.asarray(rho, dtype=complex), psi[:, None])
    # matmul, unlike einsum, keeps every value bit-identical to np.vdot
    return _checked_populations(np.matmul(psi.conj()[None, :], amps)[..., 0, 0].real)


def _checked_populations(values: np.ndarray) -> float | np.ndarray:
    """Populations clamped to [0, 1] when rounding noise puts them within 1e-9
    of either boundary; a larger excursion or a non-finite value raises (for a
    stack, that of its first such state), since it signals a broken density
    matrix rather than roundoff."""
    bad = np.flatnonzero(~((values >= -_POP_TOL) & (values <= 1.0 + _POP_TOL)))
    if bad.size:
        value = float(values.flat[bad[0]])
        if not math.isfinite(value):
            raise ValueError(f"population {value} is not finite")
        if value < 0.0:
            raise ValueError(f"population {value:.3e} below 0 beyond tolerance")
        raise ValueError(f"population {value:.6e} above 1 beyond tolerance")
    return np.where(values < 0.0, 0.0, np.where(values > 1.0, 1.0, values))[()]
