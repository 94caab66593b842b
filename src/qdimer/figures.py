"""The paper's figures that `plot` can script: the CSV columns each one draws,
its time axis and its labels.  Only the `plot` command loads this table."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FIGURES", "FigureSpec"]


@dataclass(frozen=True)
class FigureSpec:
    columns: tuple[str, ...]  # plotted from every CSV given
    xscale: float  # multiplier from seconds to the display unit
    xlabel: str
    ylabel: str
    caption: str


_NS = (1e9, "t (ns)")
_US = (1e6, "t (us)")

FIGURES: dict[str, FigureSpec] = {
    "fig3a": FigureSpec(("C", "rho_ff"), *_NS, "population / concurrence",
                        "free swap, one molecule excited"),
    "fig3b": FigureSpec(
        ("survival_tau0.1ns", "survival_tau0.01ns", "survival_tau0.005ns",
         "gauss_tau0.1ns", "gauss_tau0.01ns", "gauss_tau0.005ns"),
        *_NS, "survival", "projection-interval sweep"),
    "fig4a": FigureSpec(("rho_pp", "rho_qq", "rho_ss", "rho_aa", "C"), *_NS,
                        "population / concurrence", "free run from a same-side product"),
    "fig4b": FigureSpec(("rho_pp", "rho_qq", "rho_ss", "rho_aa", "C"), *_NS,
                        "population / concurrence", "free run from an opposite-side product"),
    "fig5a": FigureSpec(("C", "rho11", "rho44"), *_US,
                        "population / concurrence", "resonant drive"),
    "fig5b": FigureSpec(("C",), *_US, "concurrence", "drive-strength sweep"),
    "fig5c": FigureSpec(("C",), *_US, "concurrence", "coupling-strength sweep"),
    "fig5d": FigureSpec(("C",), *_US, "concurrence", "weak-coupling detail"),
    "fig6a": FigureSpec(("C", "rho_ss"), *_US, "population / concurrence",
                        "drive detuned onto the symmetric state"),
    "fig6b": FigureSpec(("C", "rho_ss"), *_US, "population / concurrence",
                        "switch-off at the symmetric maximum, two dephasing rates"),
}
