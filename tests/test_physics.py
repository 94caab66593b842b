import numpy as np
import pytest

from qdimer.physics import (
    DEBYE,
    EPSILON_0,
    HBAR,
    SPEED_OF_LIGHT,
    MolecularConstants,
    debye_to_cm,
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
    assert debye_to_cm(1.0) == DEBYE
    assert debye_to_cm(1.46) == pytest.approx(4.8700344e-30, rel=1e-9)


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


def test_rabi_frequency_linear_in_field():
    mu = REF.mu_eg
    assert rabi_frequency(mu, 1.0) == pytest.approx(2.3090103118e4, rel=1e-9)
    assert rabi_frequency(mu, 10.0) == pytest.approx(2.3090103118e5, rel=1e-9)
    assert rabi_frequency(mu, 0.0) == 0.0


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
    with pytest.raises(ValueError):
        MolecularConstants(d0=1e-30, r=1e-8, E_l=-5.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["d0", "r", "mu_eg", "E_l"])
def test_molecular_constants_reject_non_finite(name, bad):
    inputs = dict(d0=1e-30, r=1e-8, mu_eg=1e-30, E_l=1.0)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        MolecularConstants(**{**inputs, name: bad})


@pytest.mark.parametrize("bad", [0.0, -1e-30])
def test_mu_eg_must_be_positive(bad):
    with pytest.raises(ValueError, match="mu_eg must be > 0"):
        MolecularConstants(d0=1e-30, r=1e-8, mu_eg=bad)


def test_mu_eg_defaults_to_d0():
    assert REF.mu_eg == REF.d0
    other = MolecularConstants(d0=1e-30, r=1e-8, mu_eg=2e-30)
    assert other.mu_eg == 2e-30
