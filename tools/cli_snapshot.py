"""Run a fixed set of qdimer commands and keep everything each one produces.

Usage: python tools/cli_snapshot.py SRC OUTDIR

SRC is the `src` directory of a checkout, from which the package is imported;
OUTDIR must not exist yet.  Each command runs as `python -m qdimer.cli ...` in
a directory of its own under OUTDIR, which ends up holding the files the
command wrote plus its stdout.txt, stderr.txt and exit.txt.  The commands write
relative paths only, so two snapshots -- say of a parent commit and of a
change -- compare with `diff -r`.

The commands are those `commands()` returns, the one list of them: every
catalog preset under both --rhs values, short runs that reach other paths (a
drive sweep, switch-off runs down to a two-sample grid or with a drive of 1e300
rad/s, the custom run of the README), `audit` for every named start, `zeno`
chains, `catalog`, `constants`, a `run --save-config` followed by a `run
--config` of the file it saved, a `plot`, a run that fails on its first block
(so it should exit at once), a sweep whose second point fails, audits whose
published walk overflows or drifts, a run whose step overflows, a run onto a
250-byte --out name, and refused inputs: bad flag values (among them `zeno` and `audit` with a
negative J or gamma, a tau outside the Zeno window, a --T that is no whole
number of tau intervals, a sweep from an unknown start or onto an --out path
that holds a comma or a line break or lies in a missing directory, rates whose
dephasing rates or generator overflow, and `constants` with a d0, r or mu_eg
that is not above 0, alone or after a J that is not finite), flags a command
does not read, columns a driven run cannot record and malformed `--config`
files.
Each input file (a config.json, the plot's in.csv) is written into its
command's own directory, where it stays; the saved config is copied from the
directory of the command that saved it.  Each command's wall time goes to its
console line only, so the files under OUTDIR do not depend on it.  Only the
standard library is used, and the commands run one at a time.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

STARTS = ("g1g2", "g1e2", "e1g2", "e1e2", "s", "a", "p", "q", "f", "k",
          "L1L2", "R1R2", "L1R2", "R1L2")

# the input file each command reads, written into its directory before it runs
BIG = "1" + "0" * 400
INPUTS = {
    "run_config_big_horizon": (
        "config.json", '{"scenario": "free_eg", "horizon": %s, "out": "out.csv"}\n' % BIG),
    "run_config_big_sweep_value": (
        "config.json", '{"scenario": "free_eg", "sweep_param": "J", "sweep_values": '
        '[4e9, %s], "out": "out.csv"}\n' % BIG),
    "run_config_nested": (
        "config.json", '{"scenario": "free_eg", "out": %s1%s}\n' % ("[" * 5000, "]" * 5000)),
    "plot_fig3a": (
        "in.csv", "t_s,C,rho_ff\n0.0,0.0,0.5\n5.0e-10,0.5,0.75\n1.0e-09,1.0,1.0\n"),
}
# the commands that read a file an earlier command wrote: that command and the file
SAVED = {"run_saved_config": ("run_save_config", "saved.json")}


def commands(presets: list[str]) -> dict[str, list[str]]:
    """Each command's directory name and its arguments."""
    cmds = {
        f"run_{name}_{rhs}": ["run", "--scenario", name, "--rhs", rhs, "--out", "out.csv"]
        for name in presets for rhs in ("derived", "published")
    }
    cmds["sweep_driven_detuned_s"] = ["run", "--scenario", "driven_detuned_s",
                                      "--sweep", "Omega=3e7,4e7,5e7", "--out", "det.csv"]
    cmds["run_switch_off_short"] = ["run", "--scenario", "switch_off", "--horizon", "5e-7",
                                    "--out", "out.csv"]
    cmds["run_custom_readme"] = ["run", "--initial", "e1g2", "--J", "4e9", "--gamma", "1e7",
                                 "--horizon", "25ns", "--out", "hot.csv"]
    cmds.update({f"audit_{start}": ["audit", "--initial", start] for start in STARTS})
    cmds["zeno_readme"] = ["zeno", "--tau", "0.01ns", "--T", "1ns", "--gamma", "1e6",
                           "--out", "zeno.csv"]
    cmds["zeno_benchmark_chain"] = ["zeno", "--tau", "1e-13", "--N", "10000", "--J", "4e9",
                                    "--gamma", "0", "--out", "zeno.csv"]
    cmds["zeno_long_interval"] = ["zeno", "--J", "1e3", "--tau", "10us", "--N", "10000"]
    cmds["catalog"] = ["catalog"]
    cmds["constants_field"] = ["constants", "--d0", "1.46D", "--r", "10nm", "--E-l", "1V/m"]
    cmds["constants_bad_omega0"] = ["constants", "--d0", "1.46D", "--r", "10nm",
                                    "--omega0", "-1"]
    cmds["zeno_tau_ratio_overflow"] = ["zeno", "--tau", "1e-300", "--T", "1e10",
                                       "--out", "zeno.csv"]
    cmds["run_zeno_sweep_horizon_overflow"] = ["run", "--scenario", "zeno_sweep",
                                               "--horizon", "1e300", "--out", "out.csv"]
    cmds["run_driven_omega0"] = ["run", "--scenario", "driven_detuned_s", "--samples", "11",
                                 "--omega0", "1e9", "--out", "out.csv"]
    cmds["constants_tiny_r"] = ["constants", "--d0", "1.46D", "--r", "1e-300m"]
    # constants refuses a bad d0, r or mu_eg by its name; mu_eg is checked after J
    cmds["constants_zero_d0"] = ["constants", "--d0", "0D", "--r", "10nm"]
    cmds["constants_negative_r"] = ["constants", "--d0", "1.46D", "--r", "-1nm"]
    cmds["constants_zero_mu_eg"] = ["constants", "--d0", "1.46D", "--r", "10nm", "--mu-eg", "0D"]
    cmds["constants_negative_mu_eg"] = ["constants", "--d0", "1.46D", "--r", "10nm",
                                        "--mu-eg", "-1D"]
    cmds["constants_mu_eg_field"] = ["constants", "--d0", "1.46D", "--r", "10nm",
                                     "--mu-eg", "2D", "--E-l", "3V/m"]
    cmds["constants_zero_d0_zero_mu_eg"] = ["constants", "--d0", "0D", "--r", "10nm",
                                            "--mu-eg", "0D"]
    cmds["constants_tiny_r_zero_mu_eg"] = ["constants", "--d0", "1.46D", "--r", "1e-300m",
                                           "--mu-eg", "0D"]
    cmds["run_bad_rhs"] = ["run", "--scenario", "free_eg", "--rhs", "bogus"]
    cmds["run_bad_sweep_param"] = ["run", "--scenario", "free_eg", "--sweep", "bogus=1",
                                   "--out", "out.csv"]
    cmds["run_zeno_sweep_samples"] = ["run", "--scenario", "zeno_sweep", "--samples", "5",
                                      "--out", "out.csv"]
    cmds["run_switch_off_from_s"] = ["run", "--scenario", "switch_off", "--initial", "s",
                                     "--samples", "11", "--out", "a.csv"]
    # the head is the t = 0 sample alone: the step to t_off spans the driven segment
    cmds["run_switch_off_one_sample_head"] = ["run", "--scenario", "switch_off",
                                              "--samples", "2", "--out", "out.csv"]
    cmds["run_switch_off_probe_cut"] = ["run", "--scenario", "switch_off", "--horizon", "1e-8",
                                        "--out", "out.csv"]
    cmds["run_free_eg_published_doomed"] = ["run", "--scenario", "free_eg", "--rhs",
                                            "published", "--samples", "2000001",
                                            "--out", "out.csv"]
    # refusals whose lines must keep their text however the protocol checks its inputs
    cmds["zeno_negative_J"] = ["zeno", "--tau", "1e-11", "--N", "5", "--J", "-1"]
    cmds["zeno_negative_gamma"] = ["zeno", "--tau", "1e-11", "--N", "5", "--gamma", "-1"]
    cmds["zeno_outside_window"] = ["zeno", "--tau", "1e-9", "--N", "5"]
    cmds["zeno_T_not_whole"] = ["zeno", "--tau", "1e-11", "--T", "1.5e-11"]
    cmds["zeno_zero_tau_negative_J"] = ["zeno", "--tau", "0", "--N", "5", "--J", "-1"]
    cmds["zeno_omega0"] = ["zeno", "--tau", "0.01ns", "--N", "10", "--omega0", "1e9"]
    cmds["audit_omega0"] = ["audit", "--omega0", "1e9"]
    cmds["audit_negative_J"] = ["audit", "--J", "-1"]
    cmds["audit_negative_gamma"] = ["audit", "--gamma", "-1"]
    # an unknown start is an input of the whole sweep, not of its first point
    cmds["run_sweep_unknown_initial"] = ["run", "--initial", "bogus", "--J", "4e9",
                                         "--horizon", "1ns", "--sweep", "J=1e9,2e9",
                                         "--out", "x.csv"]
    # audits whose published walk fails its trace guard: by overflow, and by drift
    cmds["audit_long_horizon"] = ["audit", "--horizon", "1e-3"]
    cmds["audit_e1g2_1us"] = ["audit", "--initial", "e1g2", "--horizon", "1e-6"]
    cmds["run_zeno_sweep_omega0"] = ["run", "--scenario", "zeno_sweep", "--omega0", "1e9",
                                     "--out", "out.csv"]
    cmds["run_zeno_sweep_Omega"] = ["run", "--scenario", "zeno_sweep", "--Omega", "1e7",
                                    "--out", "out.csv"]
    # Re rho14 turns with the rotating frame, so a driven run cannot record it
    cmds["run_driven_rho_pp"] = ["run", "--scenario", "driven_resonant", "--observables",
                                 "rho_pp,rho_qq", "--out", "out.csv"]
    cmds["run_switch_off_rho_qq"] = ["run", "--scenario", "switch_off", "--observables",
                                     "rho_ss,rho_qq", "--out", "out.csv"]
    # a sweep's index CSV holds each point's path unquoted
    cmds["run_sweep_comma_out"] = ["run", "--scenario", "free_eg", "--samples", "3",
                                   "--sweep", "J=1e9,2e9", "--out", "a,b.csv"]
    cmds["run_sweep_newline_out"] = ["run", "--scenario", "free_eg", "--samples", "3",
                                     "--sweep", "J=1e9,2e9", "--out", "n\nl.csv"]
    # the trigger probe's spacing, about 8.9e-304 s, cubes to below the underflow
    cmds["run_switch_off_huge_omega"] = ["run", "--scenario", "switch_off", "--Omega", "1e300",
                                         "--out", "out.csv"]
    # a sweep whose second point fails after its first was written, and an --out
    # in a directory that does not exist
    cmds["run_sweep_second_point_fails"] = ["run", "--scenario", "switch_off", "--samples",
                                            "11", "--sweep", "horizon=500ns,10ns",
                                            "--out", "s.csv"]
    cmds["run_out_missing_directory"] = ["run", "--scenario", "free_eg", "--samples", "11",
                                         "--out", "no/x.csv"]
    # rates that are finite one by one, whose dephasing rates or generator overflow
    cmds["audit_gamma_overflow"] = ["audit", "--gamma", "1e308"]
    cmds["zeno_gamma_overflow"] = ["zeno", "--tau", "1e6", "--T", "1e6", "--J", "1e-9",
                                   "--gamma", "1e308"]
    cmds["run_omega0_overflow"] = ["run", "--scenario", "free_eg", "--omega0", "1e308",
                                   "--out", "out.csv"]
    cmds["run_switch_off_delta_l_overflow"] = ["run", "--scenario", "switch_off", "--Omega",
                                               "1e9", "--delta-l", "1e308", "--samples", "11",
                                               "--out", "out.csv"]
    cmds["audit_closure_overflow"] = ["audit", "--horizon", "1e-308", "--J", "1e308",
                                      "--gamma", "1e-10"]
    # a finite generator whose step of 5e8 s is not: the line names both
    cmds["run_step_overflow"] = ["run", "--scenario", "free_eg", "--omega0", "1e307",
                                 "--horizon", "1e12", "--out", "out.csv"]
    # a 250-byte --out name, whose temporary name is cut to fit the name limit
    cmds["run_long_out_name"] = ["run", "--scenario", "free_eg", "--samples", "5",
                                 "--out", "a" * 246 + ".csv"]
    cmds["run_config_big_horizon"] = ["run", "--config", "config.json"]
    cmds["run_config_big_sweep_value"] = ["run", "--config", "config.json"]
    cmds["run_config_nested"] = ["run", "--config", "config.json"]
    cmds["run_save_config"] = ["run", "--scenario", "free_eg", "--samples", "11",
                               "--out", "out.csv", "--save-config", "saved.json"]
    cmds["run_saved_config"] = ["run", "--config", "saved.json"]
    cmds["plot_fig3a"] = ["plot", "--figure", "fig3a", "--csv", "in.csv", "--out", "fig.gp"]
    return cmds


def run(args: list[str], cwd: str, env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "qdimer.cli", *args], cwd=cwd, env=env,
                          capture_output=True)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/cli_snapshot.py SRC OUTDIR", file=sys.stderr)
        return 2
    src, outdir = os.path.abspath(argv[0]), argv[1]
    env = {**os.environ, "PYTHONPATH": src}
    os.makedirs(outdir)
    listing = run(["catalog"], outdir, env)
    if listing.returncode != 0:
        sys.stderr.write(listing.stderr.decode())
        return 1
    presets = [line.split(":")[0] for line in listing.stdout.decode().splitlines()]
    for name, args in commands(presets).items():
        cwd = os.path.join(outdir, name)
        os.mkdir(cwd)
        if name in INPUTS:
            filename, text = INPUTS[name]
            with open(os.path.join(cwd, filename), "w") as fh:
                fh.write(text)
        if name in SAVED:
            source, filename = SAVED[name]
            shutil.copy(os.path.join(outdir, source, filename), cwd)
        start = time.perf_counter()
        done = run(args, cwd, env)
        wall = time.perf_counter() - start
        for filename, data in (("stdout.txt", done.stdout), ("stderr.txt", done.stderr),
                               ("exit.txt", f"{done.returncode}\n".encode())):
            with open(os.path.join(cwd, filename), "wb") as fh:
                fh.write(data)
        print(f"{name}: exit {done.returncode} in {wall:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
