import re

import numpy as np
import pytest

from qdimer.physics import (
    DEBYE,
    EPSILON_0,
    HBAR,
    SPEED_OF_LIGHT,
    MolecularConstants,
    dipole_coupling,
    einstein_a,
    rabi_frequency,
)

# the reference molecule: 1.46 D permanent dipole, 10 nm apart
REF = MolecularConstants(d0=1.46 * DEBYE, r=10e-9)


def test_codata_constants():
    assert HBAR == 1.054571817e-34
    assert EPSILON_0 == 8.8541878128e-12
    assert SPEED_OF_LIGHT == 299792458.0
    assert DEBYE == 3.33564e-30


def test_debye_conversion():
    assert 1.46 * DEBYE == pytest.approx(4.8700344e-30, rel=1e-9)


def test_reference_coupling_value():
    # frozen: 2 d0^2 / (4 pi eps0 hbar r^3) at the reference geometry
    assert dipole_coupling(REF) == pytest.approx(4.0425862897e9, rel=1e-9)
    # the headline order of magnitude
    assert 4.0e9 < dipole_coupling(REF) < 4.1e9


def test_coupling_scales_as_inverse_cube():
    far = MolecularConstants(d0=REF.d0, r=2 * REF.r)
    assert dipole_coupling(far) == pytest.approx(dipole_coupling(REF) / 8.0, rel=1e-12)
    strong = MolecularConstants(d0=2 * REF.d0, r=REF.r)
    assert dipole_coupling(strong) == pytest.approx(4 * dipole_coupling(REF), rel=1e-12)


def test_einstein_a_frozen_values():
    assert einstein_a(REF.mu_eg, 1.5e11) == pytest.approx(3.3758233135e-7, rel=1e-9)
    assert einstein_a(REF.mu_eg, 6.78e12) == pytest.approx(3.1174178122e-2, rel=1e-9)


def test_einstein_a_cubic_in_frequency():
    a1 = einstein_a(REF.mu_eg, 1.0e11)
    a2 = einstein_a(REF.mu_eg, 2.0e11)
    assert a2 == pytest.approx(8.0 * a1, rel=1e-12)


def test_radiative_decay_negligible_against_coupling():
    # spontaneous emission is irrelevant on the exchange timescale
    ratio = einstein_a(REF.mu_eg, 1.5e11) / dipole_coupling(REF)
    assert ratio < 1e-15


@pytest.mark.parametrize("name, bad", [
    ("omega0", np.nan), ("omega0", np.inf), ("omega0", True), ("mu_eg", np.nan), ("mu_eg", -np.inf),
])
def test_einstein_a_rejects_non_finite(name, bad):
    args = {"mu_eg": 5e-30, "omega0": 1.5e11, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be a finite number, got {bad!r}"):
        einstein_a(**args)


def test_rabi_frequency_linear_in_field():
    mu = REF.mu_eg
    assert rabi_frequency(mu, 1.0) == pytest.approx(2.3090103118e4, rel=1e-9)
    assert rabi_frequency(mu, 10.0) == pytest.approx(2.3090103118e5, rel=1e-9)
    assert rabi_frequency(mu, 0.0) == 0.0


@pytest.mark.parametrize("name, bad", [
    ("E_l", np.inf), ("E_l", -np.inf), ("E_l", np.nan), ("E_l", True), ("E_l", "100"),
    ("mu_eg", np.nan),
])
def test_rabi_frequency_rejects_non_finite(name, bad):
    args = {"mu_eg": 5e-30, "E_l": 100.0, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be a finite number, got {bad!r}"):
        rabi_frequency(**args)


def test_rabi_frequency_rejects_negative_field():
    with pytest.raises(ValueError, match="E_l must be >= 0, got -5.0"):
        rabi_frequency(5e-30, -5.0)


@pytest.mark.parametrize("rate, name", [
    # r**3 underflows to 0 (ZeroDivisionError), or a power overflows (OverflowError)
    (lambda: dipole_coupling(MolecularConstants(d0=REF.d0, r=1e-300)), "J"),
    (lambda: dipole_coupling(MolecularConstants(d0=REF.d0, r=1e300)), "J"),
    (lambda: dipole_coupling(MolecularConstants(d0=1e300, r=REF.r)), "J"),
    (lambda: einstein_a(1e300, 1.5e11), "einstein_a"),
    (lambda: einstein_a(REF.mu_eg, 1e300), "einstein_a"),
    # a finite product that rounds to inf, with no exception raised
    (lambda: einstein_a(1e150, 1e100), "einstein_a"),
    (lambda: rabi_frequency(1e300, 1e300), "Omega"),
], ids=["J-tiny-r", "J-huge-r", "J-huge-d0", "A-huge-mu", "A-huge-omega0", "A-inf-product",
        "Omega-inf-product"])
def test_rates_refuse_a_value_that_is_not_finite(rate, name):
    # these once raised ZeroDivisionError or OverflowError, or returned inf
    with pytest.raises(ValueError, match=f"^{name} is not a finite number for these inputs$"):
        rate()


def test_field_for_typical_drive_strength():
    # the drive strengths used in the presets need desk-scale fields
    mu = REF.mu_eg
    field = 7e7 / rabi_frequency(mu, 1.0)  # E for Omega = 7e7 s^-1
    assert 1e2 < field < 1e5  # volts per metre, nothing exotic


def test_molecular_constants_validation():
    with pytest.raises(ValueError):
        MolecularConstants(d0=-1e-30, r=1e-8)
    with pytest.raises(ValueError):
        MolecularConstants(d0=1e-30, r=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, True])
@pytest.mark.parametrize("name", ["d0", "r", "mu_eg"])
def test_molecular_constants_reject_non_finite(name, bad):
    inputs = dict(d0=1e-30, r=1e-8, mu_eg=1e-30)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        MolecularConstants(**{**inputs, name: bad})


BIG = [(10**400, "1.000e+400"), (-10**400, "-1.000e+400")]


@pytest.mark.parametrize("bad, shown", BIG, ids=["plus", "minus"])
@pytest.mark.parametrize("name", ["d0", "r", "mu_eg"])
def test_molecular_constants_reject_an_int_past_the_float_range(name, bad, shown):
    # math.isfinite(10**400) raises OverflowError, which once escaped the check
    inputs = dict(d0=1e-30, r=1e-8, mu_eg=1e-30)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be finite, got {shown}')}$"):
        MolecularConstants(**{**inputs, name: bad})


@pytest.mark.parametrize("bad, shown", BIG, ids=["plus", "minus"])
@pytest.mark.parametrize("rate, args, name", [
    (einstein_a, {"mu_eg": 5e-30, "omega0": 1.5e11}, "mu_eg"),
    (einstein_a, {"mu_eg": 5e-30, "omega0": 1.5e11}, "omega0"),
    (rabi_frequency, {"mu_eg": 5e-30, "E_l": 100.0}, "mu_eg"),
    (rabi_frequency, {"mu_eg": 5e-30, "E_l": 100.0}, "E_l"),
], ids=["A-mu_eg", "A-omega0", "Omega-mu_eg", "Omega-E_l"])
def test_rates_reject_an_int_past_the_float_range(rate, args, name, bad, shown):
    message = re.escape(f"{name} must be a finite number, got {shown}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        rate(**{**args, name: bad})


@pytest.mark.parametrize("bad", [0.0, -1e-30])
def test_mu_eg_must_be_positive(bad):
    with pytest.raises(ValueError, match="mu_eg must be > 0"):
        MolecularConstants(d0=1e-30, r=1e-8, mu_eg=bad)


def test_mu_eg_defaults_to_d0():
    assert REF.mu_eg == REF.d0
    other = MolecularConstants(d0=1e-30, r=1e-8, mu_eg=2e-30)
    assert other.mu_eg == 2e-30
