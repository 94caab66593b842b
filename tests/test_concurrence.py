import numpy as np
import pytest

from oracles import (
    concurrence_mpmath,
    concurrence_reference,
    concurrence_x_state,
    integrate,
    random_density,
    random_pure,
)
from qdimer.concurrence import ConcurrenceError, concurrence, concurrence_stack, spin_flip
from qdimer.scenarios import catalog
from qdimer.states import named_state, pure_density


def pure_concurrence(psi):
    # algebraic closed form for pure two-qubit states
    return 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2])


def werner(p):
    return p * pure_density(named_state("s")) + (1.0 - p) * np.eye(4) / 4.0


def random_local_unitary(rng):
    def u2():
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(a)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    return np.kron(u2(), u2())


# ---------------------------------------------------------------------------
# spin flip

def test_spin_flip_swaps_bare_projectors():
    rho = pure_density(named_state("g1g2"))
    assert np.allclose(spin_flip(rho), pure_density(named_state("e1e2")))


def test_spin_flip_leaves_bell_state_alone():
    rho = pure_density(named_state("s"))
    assert np.allclose(spin_flip(rho), rho)


def test_spin_flip_leaves_identity_alone():
    assert np.allclose(spin_flip(np.eye(4) / 4.0), np.eye(4) / 4.0)


def test_spin_flip_is_an_involution():
    rng = np.random.default_rng(5)
    rho = random_density(rng)
    assert np.allclose(spin_flip(spin_flip(rho)), rho)


# ---------------------------------------------------------------------------
# fixed values

def test_product_state_concurrence_zero():
    assert concurrence(pure_density(named_state("g1g2"))).value == 0.0
    assert concurrence(pure_density(named_state("e1g2"))).value == 0.0


def test_bell_states_maximally_entangled():
    for name in ("s", "a", "p", "q", "f", "k"):
        assert concurrence(pure_density(named_state(name))).value == pytest.approx(
            1.0, abs=1e-12
        ), name


def test_localized_products_unentangled():
    for name in ("L1L2", "R1R2", "L1R2", "R1L2"):
        assert concurrence(pure_density(named_state(name))).value < 1e-10, name


@pytest.mark.parametrize(
    "p, expected", [(0.0, 0.0), (1.0 / 3.0, 0.0), (0.6, 0.4), (1.0, 1.0)]
)
def test_werner_family(p, expected):
    assert concurrence(werner(p)).value == pytest.approx(expected, abs=1e-12)
    # Werner states are X states
    assert concurrence_x_state(werner(p)) == pytest.approx(expected, abs=1e-15)


def test_single_excitation_superpositions():
    # a|2> + b|3> has concurrence 2|a||b|; 20-point grid plus phases
    thetas = np.linspace(0.05, np.pi / 2 - 0.05, 10)
    phases = (0.0, 1.1)
    for theta in thetas:
        for phase in phases:
            a, b = np.cos(theta), np.sin(theta) * np.exp(1j * phase)
            psi = np.array([0.0, a, b, 0.0])
            got = concurrence(np.outer(psi, psi.conj())).value
            assert got == pytest.approx(2.0 * abs(a) * abs(b), abs=1e-10)


def test_result_invariants():
    res = concurrence(werner(0.6))
    l0, l1, l2, l3 = res.lambdas
    assert l0 >= l1 >= l2 >= l3 >= 0.0
    assert res.value == max(0.0, l0 - l1 - l2 - l3)


# ---------------------------------------------------------------------------
# randomized properties

def test_random_pure_states_match_algebraic_form():
    rng = np.random.default_rng(101)
    for _ in range(200):
        psi = random_pure(rng)
        got = concurrence(np.outer(psi, psi.conj())).value
        assert got == pytest.approx(pure_concurrence(psi), abs=1e-10)


def test_random_densities_bounded_and_match_oracle():
    rng = np.random.default_rng(20260814)
    for _ in range(1000):
        rho = random_density(rng)
        res = concurrence(rho)
        assert 0.0 <= res.value <= 1.0
        assert abs(res.value - concurrence_reference(rho)) <= 1e-9


def test_local_unitary_invariance():
    rng = np.random.default_rng(303)
    for _ in range(100):
        rho = random_density(rng)
        u = random_local_unitary(rng)
        base = concurrence(rho).value
        rotated = concurrence(u @ rho @ u.conj().T).value
        assert abs(base - rotated) <= 1e-9


def test_mixing_never_raises_concurrence_above_pure_component():
    # sanity: C is convex, so mixing with identity cannot increase it
    rng = np.random.default_rng(404)
    for _ in range(50):
        psi = random_pure(rng)
        pure = np.outer(psi, psi.conj())
        mixed = 0.7 * pure + 0.3 * np.eye(4) / 4.0
        assert concurrence(mixed).value <= concurrence(pure).value + 1e-12


# ---------------------------------------------------------------------------
# unphysical inputs

def test_negative_state_rejected():
    rho = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
    with pytest.raises(ConcurrenceError):
        concurrence(rho)


def test_strongly_nonhermitian_state_rejected():
    # a skew (0,1) block gives the product genuinely complex eigenvalues
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho[0, 1] = 0.3
    rho[1, 0] = -0.3
    with pytest.raises(ConcurrenceError):
        concurrence(rho)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_state_rejected(bad):
    rho = werner(0.6)
    rho[1, 2] = bad
    with pytest.raises(ConcurrenceError, match="not Hermitian"):
        concurrence(rho)


def test_tiny_negativity_is_clamped_not_fatal():
    # lowest eigenvalue -1e-12 of rho lies within NEG_TOL: clipped, not raised
    rho = np.diag([0.5, 0.5, 1e-12, -1e-12]).astype(complex)
    res = concurrence(rho)
    assert res.clamped
    assert res.value == 0.0


def test_negativity_beyond_tolerance_raises():
    rho = np.diag([0.5, 0.5, 2e-9, -2e-9]).astype(complex)
    with pytest.raises(ConcurrenceError, match="negative eigenvalue -2.000e-09 of rho"):
        concurrence(rho)


def test_positive_state_is_not_clamped():
    assert not concurrence(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)).clamped


def test_tiny_skew_is_tolerated():
    rho = werner(0.6)
    rho[0, 1] += 1e-12
    assert concurrence(rho).value == pytest.approx(0.4, abs=1e-12)
    rho[0, 1] += 2e-9
    with pytest.raises(ConcurrenceError, match="not Hermitian"):
        concurrence(rho)


# ---------------------------------------------------------------------------
# the free presets' own states, against references that share no code path

def preset_states(name):
    sc = next(s for s in catalog() if s.name == name)
    times = np.linspace(0.0, sc.horizon, sc.samples)
    rho0 = pure_density(named_state(sc.initial))
    return times, integrate("derived", rho0, sc.params, times)


def test_free_eg_states_match_x_state_form():
    # every state of an e1g2 run is an X state; near t = 0 it is nearly pure
    # and the spin-flip spectrum has a near-repeated zero
    _, states = preset_states("free_eg")
    got = concurrence_stack(states).values
    assert np.max(np.abs(got - concurrence_x_state(states))) <= 1e-14


@pytest.mark.parametrize("name", ["free_LL", "free_LR"])
@pytest.mark.parametrize("t", [1e-12, 7.29e-10, 2.758e-9, 5e-9])
def test_localized_states_match_mpmath(name, t):
    # at t = 2.758 ns the spin-flip spectrum is 0.993, 1.89e-6 (twice) and
    # 3.6e-12: the last is a true eigenvalue, far below the first
    times, states = preset_states(name)
    k = int(np.argmin(np.abs(times - t)))
    assert abs(concurrence(states[k]).value - concurrence_mpmath(states[k])) <= 1e-14
