import re

import numpy as np
import pytest

from oracles import ENTANGLED_LABELS, entangled_transform, to_entangled_basis
from qdimer.states import NAMED_STATES, named_state, population, pure_density


def test_bare_basis_order():
    for k, label in enumerate(("g1g2", "g1e2", "e1g2", "e1e2")):
        vec = named_state(label)
        expected = np.zeros(4)
        expected[k] = 1.0
        assert np.array_equal(vec, expected)


def test_all_named_states_normalized():
    for name in NAMED_STATES:
        vec = named_state(name)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12, name


def test_entangled_states_from_bare():
    rt = 1.0 / np.sqrt(2.0)
    assert np.allclose(named_state("s"), [0, rt, rt, 0])
    assert np.allclose(named_state("a"), [0, rt, -rt, 0])
    assert np.allclose(named_state("p"), [rt, 0, 0, rt])
    assert np.allclose(named_state("q"), [rt, 0, 0, -rt])
    assert np.allclose(named_state("f"), [0, rt, 1j * rt, 0])
    assert np.allclose(named_state("k"), [0, rt, -1j * rt, 0])


def test_localized_products_recombine_to_entangled_states():
    # the defining identities of the localized basis
    rt = 1.0 / np.sqrt(2.0)
    LL, RR = named_state("L1L2"), named_state("R1R2")
    LR, RL = named_state("L1R2"), named_state("R1L2")
    assert np.allclose((LL - RR) * rt, named_state("s"))
    assert np.allclose((LL + RR) * rt, named_state("p"))
    assert np.allclose((LR - RL) * rt, named_state("a"))
    assert np.allclose((LR + RL) * rt, named_state("q"))


def test_localized_products_are_product_states():
    # separable states have zero "determinant" a1*a4 - a2*a3
    for name in ("L1L2", "R1R2", "L1R2", "R1L2"):
        a = named_state(name)
        assert abs(a[0] * a[3] - a[1] * a[2]) < 1e-12, name


def test_named_state_unknown_rejected():
    with pytest.raises(ValueError):
        named_state("nope")


def test_named_state_returns_copy():
    v1 = named_state("s")
    v1[0] = 99.0
    assert named_state("s")[0] == 0.0


def test_pure_density_projector():
    rho = pure_density(named_state("s"))
    assert rho.shape == (4, 4)
    assert np.allclose(rho, rho.conj().T)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.allclose(rho @ rho, rho)  # idempotent
    assert abs(rho[1, 2] - 0.5) < 1e-12


def test_pure_density_rejects_unnormalized():
    with pytest.raises(ValueError):
        pure_density(np.array([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_pure_density_rejects_non_finite(value):
    # a NaN norm error is not above the tolerance either
    with pytest.raises(ValueError, match="state is not normalized"):
        pure_density(np.array([value, 0.0, 0.0, 0.0]))


def test_entangled_transform_is_unitary():
    # the reference transform is written out, so its rows are checked here
    m = entangled_transform()
    assert np.allclose(m @ m.conj().T, np.eye(4))
    # rows follow the (p, s, a, q) label order
    for row, label in zip(m, ENTANGLED_LABELS):
        assert np.allclose(row.conj(), named_state(label)), label


def test_to_entangled_basis_diagonalizes_own_projectors():
    for k, label in enumerate(ENTANGLED_LABELS):
        rho = pure_density(named_state(label))
        rot = to_entangled_basis(rho)
        expected = np.zeros((4, 4))
        expected[k, k] = 1.0
        assert np.allclose(rot, expected), label


def test_population_matches_entangled_transform():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    rot = to_entangled_basis(rho)
    for k, label in enumerate(ENTANGLED_LABELS):
        assert abs(population(rho, named_state(label)) - rot[k, k].real) < 1e-12


def test_population_basic_values():
    rho = pure_density(named_state("e1g2"))
    assert population(rho, named_state("e1g2")) == pytest.approx(1.0)
    assert population(rho, named_state("g1e2")) == pytest.approx(0.0, abs=1e-15)
    assert population(rho, named_state("s")) == pytest.approx(0.5)
    assert population(rho, named_state("f")) == pytest.approx(0.5)


def test_population_clamps_rounding_noise_only():
    rho = pure_density(named_state("s"))
    rho[1, 1] += 5e-10  # tiny positive violation pushes population past 1
    assert population(rho, named_state("s")) <= 1.0
    bad = pure_density(named_state("s"))
    bad[1, 1] += 1e-3
    with pytest.raises(ValueError):
        population(bad, named_state("s"))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_population_rejects_non_finite(value):
    rho = pure_density(named_state("s"))
    rho[1, 1] = value
    with pytest.raises(ValueError, match="is not finite"):
        population(rho, named_state("s"))
    stack = np.stack([pure_density(named_state("s"))] * 3)
    stack[1, 1, 1] = value
    with pytest.raises(ValueError, match="is not finite"):
        population(stack, named_state("s"))


@pytest.mark.parametrize("psi, message", [
    ([1, 1, 0, 0], "state is not normalized: |<psi|psi> - 1| = 1.000e+00"),
    ([0.5, 0, 0, 0], "state is not normalized: |<psi|psi> - 1| = 7.500e-01"),
    ([np.nan, 0, 0, 0], "state is not normalized: |<psi|psi> - 1| = nan"),
    ([1, 0, 0], "expected shape (4,), got (3,)"),
], ids=["norm-2", "norm-quarter", "nan", "shape-3"])
def test_population_refuses_a_state_that_is_not_normalized(psi, message):
    # [1, 1, 0, 0] once gave 1.0 and [0.5, 0, 0, 0] gave 0.25
    rho = pure_density(named_state("g1g2"))
    for given in (rho, np.stack([rho] * 3)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            population(given, psi)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pure_density(psi)
