import functools
import re

import numpy as np
import pytest

from oracles import fastest_rate, published_superoperator_table
from qdimer.liouville import (
    SystemParams, _is_finite_number, _shown, dephasing_rates, hamiltonian, superoperator
)
from qdimer.scenarios import Scenario, catalog
from qdimer.states import NAMED_STATES, named_state, pure_density

FREE = SystemParams(omega0=1.5e11, J=4.0e9, gamma=0.0)


def drho_dt(variant, rho, params):
    # the generator applied to one state
    return (superoperator(variant, params) @ rho.reshape(16)).reshape(4, 4)


def random_hermitian_unit_trace(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# SystemParams

def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(omega0=-1.0, J=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        SystemParams(omega0=1.0, J=-1.0, gamma=0.0)
    with pytest.raises(ValueError):
        SystemParams(omega0=1.0, J=1.0, gamma=-1.0)
    with pytest.raises(ValueError):
        # a drive strength without the rotating frame makes no sense here
        SystemParams(omega0=1.0, J=1.0, gamma=0.0, Omega=0.5)
    # negative detuning is legitimate (drive below the doublet)
    SystemParams(omega0=1.0, J=1.0, gamma=0.0, Omega=0.5, delta_l=-1.0, driven=True)


@pytest.mark.parametrize("delta_l", [3e9, -1.0, 1e-300])
def test_params_refuse_delta_l_when_undriven(delta_l):
    # splitting() reads delta_l only in the rotating frame, so it was once ignored
    with pytest.raises(ValueError, match="^delta_l must be 0 when driven is False$"):
        SystemParams(omega0=1.0, J=1.0, gamma=0.0, delta_l=delta_l)
    driven = SystemParams(omega0=1.0, J=1.0, gamma=0.0, delta_l=delta_l, driven=True)
    assert driven.splitting() == delta_l


@pytest.mark.parametrize("name", ["omega0", "J", "gamma", "Omega", "delta_l"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, True, "4e9", None])
def test_params_reject_non_finite(name, bad):
    rates = dict(omega0=1.0, J=1.0, gamma=0.0, Omega=0.5, delta_l=-1.0)
    with pytest.raises(ValueError, match="finite"):
        SystemParams(**{**rates, name: bad}, driven=True)


@pytest.mark.parametrize("bad, shown", [(10**400, "1.000e+400"), (-10**400, "-1.000e+400"),
                                        (10**5000, "1.000e+5000")],
                         ids=["plus", "minus", "past-the-digit-limit"])
@pytest.mark.parametrize("name", ["omega0", "J", "gamma", "Omega", "delta_l"])
def test_params_refuse_an_int_past_the_float_range(name, bad, shown):
    # math.isfinite(10**400) raises OverflowError, which once escaped the check
    rates = dict(omega0=1.0, J=1.0, gamma=0.0, Omega=0.5, delta_l=-1.0)
    message = re.escape(f"{name} must be a finite number, got {shown}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        SystemParams(**{**rates, name: bad}, driven=True)


def test_an_int_is_a_finite_number_inside_the_float_range():
    assert _is_finite_number(10**308) and _is_finite_number(-10**308)
    assert not _is_finite_number(10**309) and not _is_finite_number(-10**309)
    assert SystemParams(omega0=10**308, J=1, gamma=0).omega0 == 10**308


SHOWN = [
    (10**400, "1.000e+400"), (-10**400, "-1.000e+400"), (123456789 * 10**300, "1.234e+308"),
    (10**15, "1.000e+15"), (10**15 - 1, "999999999999999"), (-5, "-5"), (2.5, "2.5"),
    # str() of an int past 4,300 digits raises, so these once escaped as that error
    (10**5000, "1.000e+5000"), (-(10**5000) + 1, "-9.999e+4999"),
    (19999 * 10**9996 - 1, "1.999e+10000"),
    (True, "True"), ("a", "'a'"), (None, "None"),
    # containers, element by element: str() of one holding an int past 4,300 digits raises
    ([10**5000], "[1.000e+5000]"), ((10**400,), "(1.000e+400,)"),
    ({"J": -10**400, "a": [1, "C"]}, "{'J': -1.000e+400, 'a': [1, 'C']}"),
    (("a", 1.5, None, True), "('a', 1.5, None, True)"), ((), "()"), ([], "[]"), ({}, "{}"),
    # json.loads reads lists nested 900 deep, and _shown stops at three levels
    ([[[[10**5000]]]], "[[[...]]]"),
    (functools.reduce(lambda v, _: [v], range(900), []), "[[[...]]]"),
]


@pytest.mark.parametrize("value, shown", SHOWN, ids=[shown for _, shown in SHOWN])
def test_an_int_of_more_than_15_digits_is_shown_by_its_first_four(value, shown):
    assert _shown(value) == shown



@pytest.mark.parametrize("bad", ["no", "false", 1, 0, None])
def test_params_driven_must_be_bool(bad):
    # a non-empty string once selected the rotating frame
    with pytest.raises(ValueError, match="driven"):
        SystemParams(omega0=1.0, J=1.0, gamma=0.0, driven=bad)


def test_splitting_selects_frame():
    free = SystemParams(omega0=2.0, J=1.0, gamma=0.0)
    driven = SystemParams(omega0=2.0, J=1.0, gamma=0.0, Omega=0.1, delta_l=0.5, driven=True)
    assert free.splitting() == 2.0
    assert driven.splitting() == 0.5


def test_fastest_rate():
    # the reference stepper's time scale
    p = SystemParams(omega0=2.0, J=5.0, gamma=1.0, Omega=3.0, delta_l=-7.0, driven=True)
    assert fastest_rate(p) == 7.0  # |delta_l| wins


# ---------------------------------------------------------------------------
# hamiltonian

def test_hamiltonian_free_eigenstructure():
    h = hamiltonian(SystemParams(omega0=0.0, J=4.0e9, gamma=0.0))
    # delta = omega0 = 0 leaves only the exchange coupling
    vals, vecs = np.linalg.eigh(h)
    assert np.allclose(vals, [-4.0e9, 0.0, 0.0, 4.0e9])
    s, a = named_state("s"), named_state("a")
    top = vecs[:, 3]
    bottom = vecs[:, 0]
    assert abs(abs(np.vdot(top, s)) - 1.0) < 1e-12  # |s> at +J
    assert abs(abs(np.vdot(bottom, a)) - 1.0) < 1e-12  # |a> at -J


def test_hamiltonian_noninteracting_limit():
    p = SystemParams(omega0=0.0, J=0.0, gamma=0.0, Omega=0.0, delta_l=3.0e9, driven=True)
    assert np.allclose(hamiltonian(p), np.diag([-3.0e9, 0.0, 0.0, 3.0e9]))


def test_hamiltonian_drive_structure():
    p = SystemParams(omega0=0.0, J=0.0, gamma=0.0, Omega=7.0e7, delta_l=0.0, driven=True)
    h = hamiltonian(p)
    assert np.allclose(h, h.conj().T)
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        assert h[i, j] == pytest.approx(7.0e7)
    assert h[0, 3] == 0.0  # no direct two-photon matrix element
    assert h[1, 2] == 0.0


def test_hamiltonian_free_uses_omega0_on_diagonal():
    h = hamiltonian(FREE)
    assert h[0, 0] == pytest.approx(-1.5e11)
    assert h[3, 3] == pytest.approx(1.5e11)
    assert h[1, 1] == 0.0 and h[2, 2] == 0.0
    assert h[1, 2] == pytest.approx(4.0e9)


# ---------------------------------------------------------------------------
# dephasing

def test_dephasing_rates_table():
    gamma = 2.5
    rates = dephasing_rates(gamma)
    expected = gamma * np.array(
        [
            [0, 1, 1, 2],
            [1, 0, 2, 1],
            [1, 2, 0, 1],
            [2, 1, 1, 0],
        ],
        dtype=float,
    )
    assert np.allclose(rates, expected)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, True, None])
def test_dephasing_rates_reject_non_finite(gamma):
    with pytest.raises(ValueError, match=f"gamma must be a finite number, got {gamma!r}"):
        dephasing_rates(gamma)


@pytest.mark.parametrize("gamma, shown", [(10**400, "1.000e+400"), (-10**400, "-1.000e+400")],
                         ids=["plus", "minus"])
def test_dephasing_rates_reject_an_int_past_the_float_range(gamma, shown):
    message = re.escape(f"gamma must be a finite number, got {shown}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        dephasing_rates(gamma)


@pytest.mark.parametrize("gamma", [0.0, 1.0, 2.5, 1e5, 1e6, 1e7, 3e300, 8.9e307])
def test_dephasing_rates_equal_the_element_loop_bit_for_bit(gamma):
    z1, z2 = (-1.0, -1.0, 1.0, 1.0), (-1.0, 1.0, -1.0, 1.0)
    loop = [[0.5 * gamma * (2.0 - z1[i] * z1[j] - z2[i] * z2[j]) for j in range(4)]
            for i in range(4)]
    assert np.array_equal(dephasing_rates(gamma), np.array(loop))


def test_dephasing_leaves_diagonal_alone():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert np.allclose(-dephasing_rates(3.0) * rho, 0.0)


def test_dephasing_single_and_double_flip_rates():
    gamma = 5.0
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 3] = 0.3
    rho[3, 0] = 0.3
    out = -dephasing_rates(gamma) * rho
    assert out[0, 3] == pytest.approx(-2 * gamma * 0.3)  # double flip
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 1] = 0.3
    rho[1, 0] = 0.3
    out = -dephasing_rates(gamma) * rho
    assert out[0, 1] == pytest.approx(-gamma * 0.3)  # single flip
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 2] = 0.25
    rho[2, 1] = 0.25
    out = -dephasing_rates(gamma) * rho
    assert out[1, 2] == pytest.approx(-2 * gamma * 0.25)  # double flip


# ---------------------------------------------------------------------------
# the generator applied to one state

def test_derived_rhs_from_bare_excited():
    rho = pure_density(named_state("e1g2"))
    out = drho_dt("derived", rho, FREE)
    j = FREE.J
    assert out[1, 2] == pytest.approx(-1j * j)  # rho23' = -iJ(rho33 - rho22)
    assert out[1, 1] == pytest.approx(0.0, abs=1e-20)
    assert out[2, 2] == pytest.approx(0.0, abs=1e-20)


def test_derived_rhs_diagonal_fixed_point():
    p = SystemParams(omega0=1.5e11, J=0.0, gamma=2.0e6)
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert np.allclose(drho_dt("derived", rho, p), 0.0)


def test_variant_disagreement_on_rho33():
    # the fingerprint state: only the (2,3) coherence is populated
    p = SystemParams(omega0=0.0, J=2.0, gamma=0.0)
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 0.5
    rho[2, 2] = 0.5
    rho[1, 2] = 0.5j
    rho[2, 1] = -0.5j
    out_d = drho_dt("derived", rho, p)
    out_p = drho_dt("published", rho, p)
    j = p.J
    # rho22' agrees: -J for both
    assert out_d[1, 1] == pytest.approx(-j)
    assert out_p[1, 1] == pytest.approx(-j)
    # rho33' flips sign between variants
    assert out_d[2, 2] == pytest.approx(+j)
    assert out_p[2, 2] == pytest.approx(-j)


def test_published_closure_keeps_trace_zero():
    rng = np.random.default_rng(3)
    p = SystemParams(omega0=1.0, J=0.7, gamma=0.3, Omega=0.2, delta_l=-0.4, driven=True)
    for _ in range(20):
        rho = random_hermitian_unit_trace(rng)
        out = drho_dt("published", rho, p)
        assert abs(np.trace(out)) < 1e-14
        assert np.allclose(out, out.conj().T, atol=1e-14)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        superoperator("verbatim", FREE)


def test_dephasing_rates_that_overflow_are_refused():
    # 2 * gamma passes the float range just above 8.99e307
    assert dephasing_rates(8.9e307)[0, 3] == 2 * 8.9e307
    with pytest.raises(ValueError, match=r"^the dephasing rates of gamma=9e\+307 s\^-1 overflow$"):
        dephasing_rates(9e307)


@pytest.mark.parametrize("variant, params, named", [
    ("derived", SystemParams(omega0=1e308, J=4e9, gamma=1e6), "omega0=1e+308, J=4e+09"),
    ("published", SystemParams(omega0=1e308, J=4e9, gamma=1e6), "omega0=1e+308, J=4e+09"),
    ("derived", SystemParams(omega0=1.5e11, J=4e9, gamma=1e6, Omega=1e9, delta_l=-1e308,
                             driven=True), "delta_l=-1e+308, J=4e+09"),
    # only the published closure row sums two entries of J
    ("published", SystemParams(omega0=0.0, J=1e308, gamma=0.0), "omega0=0, J=1e+308"),
], ids=["derived-omega0", "published-omega0", "driven-delta_l", "published-closure"])
def test_generator_that_overflows_is_refused(variant, params, named):
    # finite rates once gave an L with infinite or NaN entries and numpy's warnings
    message = re.escape(f"the {variant} generator overflows at {named}, ")
    with pytest.raises(ValueError, match=f"^{message}"):
        superoperator(variant, params)


def test_generator_of_the_largest_rates_that_fit_is_built():
    params = SystemParams(omega0=0.0, J=1e308, gamma=0.0)
    assert np.all(np.isfinite(superoperator("derived", params)))


# ---------------------------------------------------------------------------
# coefficient-by-coefficient variant comparison

def test_variants_differ_exactly_in_the_rho33_row():
    # generic parameter point so every term is exercised
    p = SystemParams(omega0=0.0, J=0.7, gamma=0.3, Omega=0.2, delta_l=-0.4, driven=True)
    lv_d = superoperator("derived", p)
    lv_p = superoperator("published", p)
    row33 = 2 * 4 + 2
    row44 = 3 * 4 + 3
    for row in range(16):
        if row == row33:
            # the published population row is the negated derived row: every
            # term, not just the exchange term
            assert np.allclose(lv_p[row], -lv_d[row], atol=1e-14), row
            assert np.max(np.abs(lv_d[row])) > 0
        elif row == row44:
            # closure absorbs the flip: row44_pub = row44_der + 2*row33_der
            assert np.allclose(lv_p[row], lv_d[row] + 2 * lv_d[row33], atol=1e-14)
        else:
            assert np.allclose(lv_p[row], lv_d[row], atol=1e-14), row


def _random_rate_sets(seed, count):
    # log-uniform rates over the decades the presets span, free and driven
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rates = dict(omega0=10 ** rng.uniform(6, 12), J=10 ** rng.uniform(5, 10),
                     gamma=rng.choice([0.0, 10 ** rng.uniform(3, 9)]))
        yield SystemParams(**rates)
        yield SystemParams(**rates, Omega=10 ** rng.uniform(5, 9),
                           delta_l=rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(5, 10),
                           driven=True)


ORACLE_RATE_SETS = [
    *(sc.params for sc in catalog() if isinstance(sc, Scenario)),
    SystemParams(omega0=0.0, J=0.7, gamma=0.3, Omega=0.2, delta_l=-0.4, driven=True),
    *_random_rate_sets(29, 100),
]


def test_published_generator_equals_the_verbatim_table():
    # the package builds the published L from the derived one (rho33 row
    # negated, rho44 row rebuilt by closure); the term-by-term transcription
    # in oracles must give the same matrix, exactly, in every row
    for p in ORACLE_RATE_SETS:
        built = superoperator("published", p)
        table = published_superoperator_table(p)
        for row in range(16):
            assert np.array_equal(built[row], table[row]), (p, row)


def rho33_moment_max(params, start):
    """max |m_k| over k = 0..15, m_k = r10 A^k vec(rho0), with A = L/|L|_1
    for the derived generator L and r10 the rho33 row of A.  The published
    generator differs from L by the rank-one 2(e15 - e10) r10, so the two
    variants give the same trajectory from rho0 exactly when every m_k is 0
    (Cayley-Hamilton)."""
    lv = superoperator("derived", params)
    a = lv / np.linalg.norm(lv, 1)
    v = pure_density(named_state(start)).reshape(16)
    worst = 0.0
    for _ in range(16):
        worst = max(worst, abs(a[10] @ v))
        v = a @ v
    return worst


# the named starts from which the two variants agree, at each preset's rates
AGREEING = {
    "free_LL": {"g1g2", "e1e2", "s", "a", "p", "q", "L1L2", "R1R2", "L1R2", "R1L2"},
    "driven_resonant": {"L1R2", "R1L2"},
}


@pytest.mark.parametrize("start", sorted(NAMED_STATES))
@pytest.mark.parametrize("preset", sorted(AGREEING))
def test_variants_agree_exactly_when_the_rho33_moments_vanish(preset, start):
    # the rank-one difference itself is pinned by
    # test_variants_differ_exactly_in_the_rho33_row
    params = next(sc.params for sc in catalog() if sc.name == preset)
    worst = rho33_moment_max(params, start)
    # the verdict at 1e-12, with three decades to spare on either side
    assert (worst < 1e-12) == (start in AGREEING[preset]), worst
    assert worst <= 1e-15 or worst >= 1e-9, worst


def test_variants_agree_at_j_zero_only_without_drive():
    # with J = 0 and no drive the discrepant row vanishes entirely
    p_free = SystemParams(omega0=1.0e3, J=0.0, gamma=0.5)
    assert np.allclose(
        superoperator("derived", p_free), superoperator("published", p_free), atol=1e-12
    )
    # but a drive keeps the flipped row alive even at J = 0
    p_drive = SystemParams(omega0=0.0, J=0.0, gamma=0.0, Omega=0.2, delta_l=0.0, driven=True)
    diff = superoperator("published", p_drive) - superoperator("derived", p_drive)
    assert np.max(np.abs(diff)) > 0.1


def test_published_without_closure_propagates_population_row():
    p = SystemParams(omega0=0.0, J=0.7, gamma=0.0)
    lv_closed = superoperator("published", p)
    lv_raw = published_superoperator_table(p, closure=False)
    row44 = 3 * 4 + 3
    # the unclosed table transcribes rho44' from the commutator (a derived
    # row), the package forces rho44' = -(rho11' + rho22' + rho33')
    assert not np.allclose(lv_closed[row44], lv_raw[row44])
    assert np.array_equal(lv_closed[:row44], lv_raw[:row44])


# ---------------------------------------------------------------------------
# invariants

def test_derived_rhs_traceless_and_hermiticity_preserving():
    rng = np.random.default_rng(11)
    p = SystemParams(omega0=1.3, J=0.9, gamma=0.2, Omega=0.4, delta_l=0.6, driven=True)
    for _ in range(50):
        rho = random_hermitian_unit_trace(rng)
        out = drho_dt("derived", rho, p)
        assert abs(np.trace(out)) < 1e-14
        assert np.max(np.abs(out - out.conj().T)) < 1e-14


def test_derived_purity_conserved_without_dephasing():
    rng = np.random.default_rng(13)
    p = SystemParams(omega0=1.1, J=0.8, gamma=0.0, Omega=0.3, delta_l=0.2, driven=True)
    for _ in range(20):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        out = drho_dt("derived", rho, p)
        dpurity = 2.0 * np.trace(rho @ out).real
        assert abs(dpurity) < 1e-12


def test_superoperator_matches_rhs_elementwise():
    # the derived generator against its operator form -i[H, rho] - rate * rho
    rng = np.random.default_rng(17)
    p = SystemParams(omega0=0.9, J=0.5, gamma=0.1, Omega=0.2, delta_l=-0.3, driven=True)
    h = hamiltonian(p)
    for _ in range(20):
        rho = random_hermitian_unit_trace(rng)
        direct = -1j * (h @ rho - rho @ h) - dephasing_rates(p.gamma) * rho
        assert np.allclose(drho_dt("derived", rho, p), direct, atol=1e-13)
