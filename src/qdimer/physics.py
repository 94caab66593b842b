"""Physical constants, and the rates each derived from plain molecular numbers.

Everything internal is SI: dipole moments in C*m, distances in m, fields in
V/m, angular rates in rad/s.  Unit suffixes (Debye, nm, ns, ...) are parsed
only at the command-line boundary.
"""

from __future__ import annotations

import math
from typing import Callable

from .liouville import _check_finite, _check_nonnegative, _check_positive

__all__ = [
    "HBAR",
    "EPSILON_0",
    "SPEED_OF_LIGHT",
    "DEBYE",
    "dipole_coupling",
    "einstein_a",
    "rabi_frequency",
]

# CODATA 2018
HBAR = 1.054571817e-34  # J*s
EPSILON_0 = 8.8541878128e-12  # F/m
SPEED_OF_LIGHT = 299792458.0  # m/s
DEBYE = 3.33564e-30  # C*m per Debye


def _finite_rate(name: str, rate: Callable[[], float]) -> float:
    """rate(), refused unless finite; a float ** or / that raises counts as not finite."""
    try:
        value = rate()
    except (OverflowError, ZeroDivisionError):  # r**3 may also underflow to 0
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} is not a finite number for these inputs")
    return value


def dipole_coupling(d0: float, r: float) -> float:
    """Dipole-dipole exchange rate J = 2 d0^2 / (4 pi eps0 hbar r^3), in rad/s.

    This is the static interaction of two permanent dipoles d0 (C*m) at
    distance r (m), divided by hbar so it reads directly as the coherent
    exchange rate between the single-excitation product states.  d0 and then
    r must each be a finite number > 0.
    """
    _check_positive("d0", d0)
    _check_positive("r", r)
    return _finite_rate("J", lambda: 2.0 * d0**2 / (4.0 * math.pi * EPSILON_0 * HBAR * r**3))


def einstein_a(mu_eg: float, omega0: float) -> float:
    """Spontaneous-emission rate A = mu^2 w0^3 / (3 pi hbar eps0 c^3), in 1/s.

    For doublet splittings in the 1e11..1e13 rad/s range this is below 1e-1/s,
    many orders of magnitude slower than every other rate in the model, which
    is why radiative decay is dropped from the dynamics.
    """
    _check_finite(mu_eg=mu_eg)
    _check_nonnegative(omega0=omega0)
    return _finite_rate("einstein_a", lambda: mu_eg**2 * omega0**3 / (
        3.0 * math.pi * HBAR * EPSILON_0 * SPEED_OF_LIGHT**3))


def rabi_frequency(mu_eg: float, E_l: float) -> float:
    """Drive Rabi rate Omega = |mu_eg| E_l / (2 hbar), in rad/s."""
    _check_finite(mu_eg=mu_eg)
    _check_nonnegative(E_l=E_l)
    return _finite_rate("Omega", lambda: abs(mu_eg) * E_l / (2.0 * HBAR))
