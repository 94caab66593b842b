"""Independent reference implementations used to cross-check the library.

Nothing here imports from the integrator or the entanglement module, apart
from `integrate`, which is no reference: it only concatenates the library's
block walk for the tests that want a whole trajectory.  The
quartic eigensolver below goes through the characteristic polynomial
(Faddeev-LeVerrier coefficients, Durand-Kerner root finding in extended
precision, Newton polish), so agreement with the library is a genuine
two-route check rather than the same code called twice.  The polynomial
route is accurate for simple roots (full-rank states); for rank-deficient
states, whose spin-flip spectrum has repeated zeros, concurrence has two
other references here: the closed form for X states and a 40-digit mpmath
evaluation of the eigenvalue definition.

The published generator's verbatim term table is transcribed here too, as
the reference that liouville's one-row construction of that generator is
compared against.

Driven runs have no closed form; they are checked against
`expm_samples`, which takes each sample from rho0 with its own
scipy.linalg.expm(L t) and so carries no state from one sample to the next,
and against the adaptive Dormand-Prince stepper at the end of this file,
which uses no matrix exponential at all.  Both share only the generator
with the library's exact propagator.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np
import scipy.linalg

from qdimer.integrate import integrate_blocks
from qdimer.liouville import SystemParams, superoperator

# sigma_y (x) sigma_y, written out here rather than imported
_FLIP = np.array([[0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])


def integrate(
    variant: str,
    rho0: np.ndarray,
    params: SystemParams,
    times: np.ndarray,
    *,
    closure: bool = True,
    trace_guard: bool = True,
) -> np.ndarray:
    """The whole (len(times), 4, 4) stack of `integrate_blocks`, which documents
    the arguments and the errors; states[k] is rho at times[k]."""
    walk = integrate_blocks(
        variant, rho0, params, times, closure=closure, trace_guard=trace_guard
    )
    return np.concatenate([states for _, states in walk])


def char_poly_coefficients(m: np.ndarray) -> np.ndarray:
    """Coefficients c of det(xI - M) = x^4 + c[0] x^3 + c[1] x^2 + c[2] x + c[3]
    via the Faddeev-LeVerrier recurrence, in extended precision."""
    m = np.asarray(m, dtype=np.clongdouble)
    n = m.shape[0]
    assert m.shape == (n, n)
    coeffs = np.zeros(n, dtype=np.clongdouble)
    aux = np.eye(n, dtype=np.clongdouble)
    for k in range(1, n + 1):
        aux = m @ aux
        c = -np.trace(aux) / k
        coeffs[k - 1] = c
        aux = aux + c * np.eye(n, dtype=np.clongdouble)
    return coeffs


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc = np.ones_like(x)
    for c in coeffs:
        acc = acc * x + c
    return acc


def quartic_roots(coeffs: np.ndarray) -> np.ndarray:
    """All four roots of the monic quartic: Durand-Kerner, then Newton."""
    coeffs = np.asarray(coeffs, dtype=np.clongdouble)
    assert coeffs.shape == (4,)
    scale = max(float(np.max(np.abs(coeffs))) ** 0.25, 1e-30)
    seed = np.clongdouble(0.4 + 0.9j) * scale
    roots = seed ** np.arange(1, 5, dtype=np.clongdouble)
    for _ in range(500):
        vals = _horner(coeffs, roots)
        diff = roots[:, None] - roots[None, :]
        np.fill_diagonal(diff, 1.0)
        den = diff.prod(axis=1)
        if np.any(den == 0.0):  # collision: nudge apart and retry
            roots = roots + np.clongdouble(1e-6) * scale * np.arange(1, 5)
            continue
        delta = vals / den
        roots = roots - delta
        if np.max(np.abs(delta)) <= 1e-17 * (np.max(np.abs(roots)) + scale):
            break
    dcoeffs = np.array(
        [4.0, 3.0 * coeffs[0], 2.0 * coeffs[1], coeffs[2]], dtype=np.clongdouble
    )
    for _ in range(4):
        deriv = ((dcoeffs[0] * roots + dcoeffs[1]) * roots + dcoeffs[2]) * roots \
            + dcoeffs[3]
        safe = np.abs(deriv) > 0.0
        step = np.where(safe, _horner(coeffs, roots) / np.where(safe, deriv, 1.0), 0.0)
        roots = roots - step
    return roots


def eigvals_4x4(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 4x4 matrix via its characteristic polynomial,
    returned as complex128 sorted by descending real part."""
    roots = quartic_roots(char_poly_coefficients(m))
    roots = np.asarray(roots, dtype=np.complex128)
    return roots[np.argsort(-roots.real)]


def concurrence_reference(rho: np.ndarray) -> float:
    """Concurrence via the characteristic-polynomial eigenvalue route.

    For full-rank states only: near-zero repeated roots of rho*rho_tilde
    come out of the quartic solver with errors far above rounding.
    """
    product = rho @ (_FLIP @ rho.conj() @ _FLIP)
    lams = np.clip(eigvals_4x4(product).real, 0.0, None)
    s = np.sqrt(np.sort(lams)[::-1])
    return float(max(0.0, s[0] - s[1] - s[2] - s[3]))


def concurrence_x_state(rho: np.ndarray) -> np.ndarray:
    """Closed form for X states, whose only coherences are rho14 and rho23:
    C = 2 max(0, |rho23| - sqrt(rho11 rho44), |rho14| - sqrt(rho22 rho33)).

    rho may be one (4, 4) state or an (N, 4, 4) stack.
    """
    rho = np.asarray(rho)
    pop = np.diagonal(rho, axis1=-2, axis2=-1).real
    outer = np.abs(rho[..., 1, 2]) - np.sqrt(pop[..., 0] * pop[..., 3])
    inner = np.abs(rho[..., 0, 3]) - np.sqrt(pop[..., 1] * pop[..., 2])
    return 2.0 * np.maximum(0.0, np.maximum(outer, inner))


def concurrence_mpmath(rho: np.ndarray, digits: int = 40) -> float:
    """Wootters' eigenvalue definition evaluated in `digits`-digit arithmetic.

    rho is read exactly, its Hermitian part projected onto the positive
    semidefinite cone (negative eigenvalues set to zero), and C taken from
    the eigenvalues of rho * rho_tilde, which are then real and non-negative
    to far below double precision.
    """
    with mpmath.workdps(digits):
        m = mpmath.matrix(4, 4)
        for i in range(4):
            for j in range(4):
                m[i, j] = (mpmath.mpc(complex(rho[i, j]))
                           + mpmath.mpc(complex(rho[j, i])).conjugate()) / 2
        w, v = mpmath.eighe(m)
        plus = v * mpmath.diag([max(x, 0) for x in w]) * v.transpose_conj()
        flip = mpmath.matrix(_FLIP.tolist())
        lams = mpmath.eig(plus * (flip * plus.conjugate() * flip), left=False, right=False)
        s = sorted((mpmath.sqrt(abs(mpmath.re(x))) for x in lams), reverse=True)
        return float(max(mpmath.mpf(0), s[0] - s[1] - s[2] - s[3]))


def random_density(rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Wishart-style)."""
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure(rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    return psi / np.linalg.norm(psi)


def free_block_solution(
    j: float, gamma: float, y0: float, z0: float, t: float
) -> tuple[float, float]:
    """Exact solution of y' = -2*gamma*y + 2*j*z, z' = -2*j*y, written in
    scalar form without matrix exponentials for independence from the
    library's propagator."""
    g = gamma
    mu = complex(g * g - 4.0 * j * j) ** 0.5
    if abs(mu * t) < 1e-150:
        ch, sh_over = 1.0 + 0j, t + 0j  # sinh(mu t)/mu -> t as mu -> 0
    else:
        ch = np.cosh(mu * t)
        sh_over = np.sinh(mu * t) / mu
    e = np.exp(-g * t)
    y = e * ((ch - g * sh_over) * y0 + 2.0 * j * sh_over * z0)
    z = e * (-2.0 * j * sh_over * y0 + (ch + g * sh_over) * z0)
    return (complex(y).real, complex(z).real)


# ---------------------------------------------------------------------------
# the published generator, transcribed from its tabulated component form

# Verbatim term tables for the tabulated ("published") component form.  Each
# row of rho's derivative is a list of (coefficient, source element) pairs;
# coefficients are multiples of i*Omega, i*J, i*Delta and gamma.  Only the
# upper triangle plus (1,1), (2,2), (3,3) are transcribed; (4,4) is the
# closure row and the lower triangle is the conjugate mirror.
def published_upper_terms(params: SystemParams) -> dict[tuple[int, int], list[tuple[complex, tuple[int, int]]]]:
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


def published_superoperator_table(params: SystemParams, closure: bool = True) -> np.ndarray:
    """The published generator walked term by term from the verbatim table."""
    lv = np.zeros((16, 16), dtype=complex)

    def row_index(i: int, j: int) -> int:
        return 4 * i + j

    terms = published_upper_terms(params)
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
        lv[r44] = superoperator("derived", params)[r44]
    return lv


# ---------------------------------------------------------------------------
# adaptive Dormand-Prince 5(4) stepper with FSAL, quartic dense output and a
# proportional step controller

@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    min_step: float = float("inf")
    max_step: float = 0.0


# Dormand-Prince 5(4) tableau (the system is autonomous, so no nodes).
_A = [
    np.array([], dtype=float),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# error estimate = h * sum(_E[i] * k[i]); difference of 5th- and 4th-order weights
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# dense output: y(t0 + u*h) = y0 + h * K^T (P @ [u, u^2, u^3, u^4])
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9


def _error_norm(err: np.ndarray, scale: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(err / scale) ** 2)))


def _initial_step(lv, y0, f0, rel: float, abs_: float, h_max: float) -> float:
    # Hairer-Norsett-Wanner starting-step heuristic, order 5.
    scale = abs_ + rel * np.abs(y0)
    d0 = _error_norm(y0, scale)
    d1 = _error_norm(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = lv @ y1
    d2 = _error_norm(f1 - f0, scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, h_max)


def expm_samples(
    variant: str, rho0: np.ndarray, params: SystemParams, times: np.ndarray
) -> np.ndarray:
    """rho at each of `times` as scipy.linalg.expm(L t) applied to rho0 itself,
    one exponential per sample; shape (len(times), 4, 4)."""
    lv = superoperator(variant, params)
    y0 = np.asarray(rho0, dtype=complex).reshape(16)
    return np.stack([scipy.linalg.expm(lv * t) @ y0 for t in times]).reshape(-1, 4, 4)


def dopri5(
    variant: str,
    rho0: np.ndarray,
    params: SystemParams,
    times: np.ndarray,
    *,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    max_step: float | None = None,
    closure: bool = True,
) -> tuple[np.ndarray, StepStats]:
    """Sample rho at `times` (increasing, >= 0) with DP5(4) dense output.

    Time is rescaled by the fastest rate so steps stay near unity; the step
    is capped at max_step seconds, by default 0.1 / fastest rate.  Returns
    the (len(times), 4, 4) states and the step statistics.
    """
    times = np.asarray(times, dtype=float)
    y = np.asarray(rho0, dtype=complex).reshape(16).copy()
    stats = StepStats()
    t_end = float(times[-1])
    if t_end == 0.0:
        return np.repeat(y.reshape(1, 4, 4), times.size, axis=0), stats

    rate = params.fastest_rate()
    if rate <= 0.0:
        rate = 1.0 / t_end
    lv = superoperator(variant, params, closure=closure) / rate
    s_samples = times * rate
    s_end = t_end * rate
    if max_step is not None:
        h_max = max_step * rate
    else:
        h_max = min(0.1 * params.fastest_rate() / rate, s_end) if params.fastest_rate() > 0 else s_end
    h_max = min(h_max, s_end)

    rel, abs_ = rel_tol, abs_tol
    f0 = lv @ y
    stats.rhs_evals += 2
    h = _initial_step(lv, y, f0, rel, abs_, h_max)

    out = np.empty((times.size, 16), dtype=complex)
    next_sample = 0
    if s_samples[0] == 0.0:
        out[0] = y
        next_sample = 1

    k = np.empty((7, 16), dtype=complex)
    k[0] = f0
    s = 0.0
    tiny = 1e-13  # step underflow threshold in rescaled units

    grow_allowed = True
    while s < s_end:
        remaining = s_end - s
        if remaining <= 1e-12 * s_end:
            break
        h = min(h, h_max, remaining)
        if h < tiny * max(1.0, abs(s)):
            raise RuntimeError(f"step size underflow at t = {s / rate:.6e} s")
        for i in range(1, 7):
            y_stage = y + h * (k[:i].T @ _A[i])
            k[i] = lv @ y_stage
        stats.rhs_evals += 6
        y_new = y_stage  # stage 7 uses the 5th-order weights: y_new = y + h*(b.k)
        err = h * (k.T @ _E)
        scale = abs_ + rel * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = _error_norm(err, scale)

        if err_norm <= 1.0:
            s_new = s + h
            # dense output for samples inside (s, s_new]
            while next_sample < s_samples.size and s_samples[next_sample] <= s_new + 1e-12 * s_end:
                u = (s_samples[next_sample] - s) / h
                u = min(max(u, 0.0), 1.0)
                pu = _P @ np.array([u, u * u, u**3, u**4])
                out[next_sample] = y + h * (k.T @ pu)
                next_sample += 1
            stats.accepted += 1
            stats.min_step = min(stats.min_step, h)
            stats.max_step = max(stats.max_step, h)
            y = y_new
            k[0] = k[6]  # FSAL
            s = s_new
            factor = _MAX_FACTOR if err_norm == 0.0 else min(_MAX_FACTOR, _SAFETY * err_norm**-0.2)
            if not grow_allowed:
                factor = min(factor, 1.0)
            h *= max(_MIN_FACTOR, factor)
            grow_allowed = True
        else:
            stats.rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err_norm**-0.2)
            grow_allowed = False

    if next_sample < s_samples.size:  # horizon reached within roundoff of last sample
        out[next_sample:] = y
    return out.reshape(times.size, 4, 4), stats
