"""Molecular inputs and the rates derived from them.

Everything internal is SI: dipole moments in C*m, distances in m, fields in
V/m, angular rates in rad/s.  Unit suffixes (Debye, nm, ns, ...) are parsed
only at the command-line boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "HBAR",
    "EPSILON_0",
    "SPEED_OF_LIGHT",
    "DEBYE",
    "MolecularConstants",
    "debye_to_cm",
    "dipole_coupling",
    "einstein_a",
    "rabi_frequency",
]

# CODATA 2018
HBAR = 1.054571817e-34  # J*s
EPSILON_0 = 8.8541878128e-12  # F/m
SPEED_OF_LIGHT = 299792458.0  # m/s
DEBYE = 3.33564e-30  # C*m per Debye


def debye_to_cm(value_debye: float) -> float:
    """Convert a dipole moment from Debye to C*m."""
    return value_debye * DEBYE


@dataclass(frozen=True)
class MolecularConstants:
    """Inputs describing one molecular species and the drive acting on it.

    d0     permanent dipole moment of the localized wells (C*m)
    mu_eg  transition dipole moment between doublet levels (C*m); equals d0
           in magnitude for an ideal inversion doublet
    r      intermolecular distance (m)
    E_l    driving field amplitude (V/m)
    """

    d0: float
    r: float
    mu_eg: float | None = None
    E_l: float = 0.0

    def __post_init__(self) -> None:
        if self.mu_eg is None:
            object.__setattr__(self, "mu_eg", self.d0)
        for name in ("d0", "r", "mu_eg", "E_l"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name != "E_l" and value <= 0.0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.E_l < 0.0:
            raise ValueError(f"E_l must be >= 0, got {self.E_l}")


def dipole_coupling(constants: MolecularConstants) -> float:
    """Dipole-dipole exchange rate J = 2 d0^2 / (4 pi eps0 hbar r^3), in rad/s.

    This is the static interaction of two permanent dipoles d0 at distance r,
    divided by hbar so it reads directly as the coherent exchange rate between
    the single-excitation product states.
    """
    return 2.0 * constants.d0**2 / (4.0 * math.pi * EPSILON_0 * HBAR * constants.r**3)


def einstein_a(mu_eg: float, omega0: float) -> float:
    """Spontaneous-emission rate A = mu^2 w0^3 / (3 pi hbar eps0 c^3), in 1/s.

    For doublet splittings in the 1e11..1e13 rad/s range this is below 1e-1/s,
    many orders of magnitude slower than every other rate in the model, which
    is why radiative decay is dropped from the dynamics.
    """
    if omega0 < 0.0:
        raise ValueError(f"omega0 must be >= 0, got {omega0}")
    return mu_eg**2 * omega0**3 / (3.0 * math.pi * HBAR * EPSILON_0 * SPEED_OF_LIGHT**3)


def rabi_frequency(mu_eg: float, E_l: float) -> float:
    """Drive Rabi rate Omega = |mu_eg| E_l / (2 hbar), in rad/s."""
    if E_l < 0.0:
        raise ValueError(f"E_l must be >= 0, got {E_l}")
    return abs(mu_eg) * E_l / (2.0 * HBAR)
