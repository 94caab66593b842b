"""The paper's figures that `plot` can script: the CSV columns each one draws,
its time axis and its labels, and the script writer.  Only the `plot` command
loads this module."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Sequence

__all__ = ["FIGURES", "FigureSpec", "emit_plot_script"]


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


def _column_indices(path: str, names: Sequence[str]) -> list[int]:
    """The gnuplot column (1-based) of each name, from one read of the header."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    for name in names:
        if name not in header:
            found = ", ".join(header)
            if len(found) > 200:  # a header of any length makes one short message
                found = found[:200] + "…"
            raise ValueError(f"{path} has no column {name!r} (found {found})")
    return [header.index(name) + 1 for name in names]


def emit_plot_script(csv_paths: Sequence[str], figure_id: str, out_path: str) -> None:
    """Write a gnuplot-dialect script plotting `figure_id` from the CSVs.

    The script is emitted as data and never executed here.  An `out_path`
    that is one of the CSVs, and a CSV path that a double-quoted gnuplot
    string cannot hold, are refused before anything is written.
    """
    from .cli import _refuse_overwrite  # the overwrite rule of every command's outputs

    if figure_id not in FIGURES:
        raise ValueError(
            f"unknown figure id {figure_id!r}; known: {', '.join(sorted(FIGURES))}"
        )
    if not csv_paths:
        raise ValueError("need at least one CSV path")
    for path in csv_paths:
        # in a double-quoted gnuplot string a quote ends it, a backslash escapes,
        # backquotes run a command and a control character breaks the line
        if re.search(r'["\\`\x00-\x1f\x7f]', path):
            raise ValueError(f"CSV path {path!r} has a quote, backslash, backquote or "
                             "control character, which a gnuplot script cannot hold")
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing CSV {path}")
    _refuse_overwrite("script path", out_path, csv_paths, "input CSV")
    spec = FIGURES[figure_id]
    curves = []
    for path in csv_paths:
        stem = os.path.splitext(os.path.basename(path))[0]
        for column, idx in zip(spec.columns, _column_indices(path, spec.columns)):
            title = column if len(csv_paths) == 1 else f"{column} [{stem}]"
            curves.append(
                f'  "{path}" using ($1*{spec.xscale:g}):{idx} with lines title "{title}"'
            )
    lines = [
        f"# {figure_id}: {spec.caption}",
        'set datafile separator ","',
        "set termoption noenhanced",
        "set key top right",
        f'set xlabel "{spec.xlabel}"',
        f'set ylabel "{spec.ylabel}"',
        "plot \\",
        ", \\\n".join(curves),
    ]
    with open(out_path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
