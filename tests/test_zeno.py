import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fastest_rate

from qdimer.cli import main, time_quantity
from qdimer.liouville import MAX_SAMPLES, SystemParams
from qdimer.integrate import closed_form_free
from qdimer.states import BLOCK, named_state, population, pure_density
from qdimer.zeno import _check_chain, analytic_survival, run_zeno

FREE = {"J": 4.0e9, "gamma": 0.0}
FREE_DEPH = {"J": 4.0e9, "gamma": 1.0e6}


# ---------------------------------------------------------------------------
# protocol validation

def test_protocol_validation():
    with pytest.raises(ValueError):
        run_zeno(tau=0.0, n_measurements=5, **FREE)
    with pytest.raises(ValueError):
        run_zeno(tau=1e-11, n_measurements=0, **FREE)
    with pytest.raises(ValueError):  # outside the Zeno window tau < 1/J
        run_zeno(tau=3e-10, n_measurements=5, **FREE)


@pytest.mark.parametrize("bad", [np.nan, np.inf, True])
def test_protocol_rejects_non_finite_tau(bad):
    with pytest.raises(ValueError, match="tau"):
        run_zeno(tau=bad, n_measurements=5, J=0.0, gamma=0.0)  # no Zeno window


@pytest.mark.parametrize("bad", [2.5, 5.0, np.nan, True])
def test_protocol_n_measurements_must_be_integer(bad):
    with pytest.raises(ValueError, match="n_measurements must be an integer"):
        run_zeno(tau=1e-11, n_measurements=bad, **FREE)


def test_protocol_caps_the_measurement_count():
    # run_zeno allocates the whole survival curve, so the count is refused
    # before anything is allocated; checking the chain allocates nothing
    _check_chain(1e-11, MAX_SAMPLES, **FREE)
    for n, count in [(MAX_SAMPLES + 1, "10000001"), (10**291, "1.000e+291")]:
        with pytest.raises(ValueError) as err:
            run_zeno(tau=1e-11, n_measurements=n, **FREE)
        assert str(err.value) == (
            f"tau = 1.000e-11 s asks for {count} measurements, above the cap of 10000000"
        )


@pytest.mark.parametrize("field, bad, message", [
    ("tau", 10**400, "tau must be > 0, got 1.000e+400"),
    ("tau", -10**400, "tau must be > 0, got -1.000e+400"),
    ("n_measurements", 10**400,
     "tau = 1.000e-11 s asks for 1.000e+400 measurements, above the cap of 10000000"),
    ("n_measurements", -10**400, "need at least one measurement, got -1.000e+400"),
], ids=["tau-plus", "tau-minus", "n_measurements-plus", "n_measurements-minus"])
def test_protocol_refuses_an_int_past_the_float_range(field, bad, message):
    # math.isfinite(10**400) raises OverflowError, which once escaped the tau check
    args = {"tau": 1e-11, "n_measurements": 5, field: bad}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_zeno(**args, **FREE)


@pytest.mark.parametrize("bad, message", [
    (-1.0, "must be >= 0, got -1.0"),
    (np.nan, "must be a finite number, got nan"),
    (np.inf, "must be a finite number, got inf"),
    (-np.inf, "must be a finite number, got -inf"),
    (True, "must be a finite number, got True"),
    ("a", "must be a finite number, got 'a'"),
    (10**400, "must be a finite number, got 1.000e+400"),
], ids=["negative", "nan", "inf", "minus-inf", "bool", "str", "int-past-float-range"])
@pytest.mark.parametrize("field", ["J", "gamma"])
def test_protocol_refuses_a_bad_rate_by_its_name(field, bad, message):
    args = {**FREE, field: bad}
    with pytest.raises(ValueError, match=f"^{re.escape(f'{field} {message}')}$"):
        run_zeno(tau=1e-11, n_measurements=5, **args)


def test_protocol_checks_the_rates_before_tau():
    # the rates are checked first, as SystemParams checked them when the
    # chain took one, so `zeno --tau 0 --N 5 --J -1` names J
    with pytest.raises(ValueError, match=r"^J must be >= 0, got -1.0$"):
        run_zeno(tau=0.0, n_measurements=5, J=-1.0, gamma=0.0)
    with pytest.raises(ValueError, match=r"^gamma must be >= 0, got -1.0$"):
        run_zeno(tau=0.0, n_measurements=0, J=4e9, gamma=-1.0)


# ---------------------------------------------------------------------------
# analytic law

def test_analytic_frozen_values():
    exact, gauss = analytic_survival(4e9, 1e-10, 10)
    assert exact == pytest.approx(0.1930935714, rel=1e-8)  # [cos^2(0.4)]^10
    assert gauss == pytest.approx(np.exp(-1.6), rel=1e-12)
    exact, gauss = analytic_survival(4e9, 1e-11, 100)
    assert exact == pytest.approx(0.8521074161, rel=1e-8)
    assert gauss == pytest.approx(np.exp(-0.16), rel=1e-12)
    exact, gauss = analytic_survival(4e9, 5e-12, 200)
    assert exact == pytest.approx(0.9231114226, rel=1e-8)
    assert gauss == pytest.approx(np.exp(-0.08), rel=1e-12)


def test_analytic_gaussian_converges_to_exact():
    # fixed T = 1 ns, shrinking tau: the gap closes below 1% once J*tau <= 0.02
    j, T = 4e9, 1e-9
    for tau in (5e-12, 2e-12, 1e-12):
        n = round(T / tau)
        exact, gauss = analytic_survival(j, tau, n)
        assert abs(gauss - exact) / exact < 1e-2, tau
    # and the tau = 0.1 ns point is visibly off the gaussian law
    exact, gauss = analytic_survival(j, 1e-10, 10)
    assert abs(gauss - exact) / exact > 0.04


def test_analytic_degenerate_inputs():
    assert analytic_survival(4e9, 0.0, 50) == (1.0, 1.0)
    assert analytic_survival(4e9, 1e-11, 0) == (1.0, 1.0)
    assert analytic_survival(0.0, 1e-11, 50) == (1.0, 1.0)
    with pytest.raises(ValueError):
        analytic_survival(-1.0, 1e-11, 5)
    with pytest.raises(ValueError):
        analytic_survival(4e9, -1e-11, 5)
    with pytest.raises(ValueError):
        analytic_survival(4e9, 1e-11, -5)


@pytest.mark.parametrize("name, bad", [
    ("j", np.nan), ("j", np.inf), ("tau", np.nan), ("tau", np.inf),
    ("n", 2.5), ("n", 5.0), ("n", True),
])
def test_analytic_survival_rejects_non_finite_and_non_integer(name, bad):
    args = {"j": 4e9, "tau": 1e-12, "n": 5, name: bad}
    what = {"j": "J must be a finite number", "tau": "tau must be a finite number",
            "n": "measurement count must be an integer"}[name]
    with pytest.raises(ValueError, match=f"{what}, got {bad!r}"):
        analytic_survival(**args)


@pytest.mark.parametrize("bad, shown", [(10**400, "1.000e+400"), (-10**400, "-1.000e+400")],
                         ids=["plus", "minus"])
@pytest.mark.parametrize("name", ["j", "tau", "n"])
def test_analytic_survival_rejects_an_int_past_the_float_range(name, bad, shown):
    # float ** 10**400 and math.isfinite(10**400) once raised OverflowError
    args = {"j": 4e9, "tau": 1e-12, "n": 5, name: bad}
    message = re.escape(f"{'J' if name == 'j' else name} must be a finite number, got {shown}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        analytic_survival(**args)


def test_analytic_survival_names_the_negative_input():
    for args, message in [((-1.0, 1e-11, 5), "J must be >= 0, got -1.0"),
                          ((4e9, -1e-11, 5), "tau must be >= 0, got -1e-11"),
                          ((4e9, 1e-11, -5), "n must be >= 0, got -5")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            analytic_survival(*args)


# ---------------------------------------------------------------------------
# protocol runs

def test_single_measurement_is_cos_squared():
    survival = run_zeno(tau=1e-10, n_measurements=1, **FREE)
    assert survival[0] == 1.0
    assert survival[1] == pytest.approx(np.cos(4e9 * 1e-10) ** 2, abs=1e-10)


@pytest.mark.parametrize("tau, n, first, last", [
    (1e-10, 10, "0x1.b250edf3675b4p-1", "0x1.8b159eae2a007p-3"),
    (1e-11, 100, "0x1.ff2d16b5d7aa0p-1", "0x1.b3d7da0e95f79p-1"),
    (5e-12, 200, "0x1.ffcaec55b6ccbp-1", "0x1.d82924aa2d8f8p-1"),
], ids=["0.1ns", "0.01ns", "0.005ns"])
def test_run_keeps_its_bytes_at_the_preset_rates(tau, n, first, last):
    # the zeno_sweep intervals at J = 4e9, gamma = 1e6: the curve the protocol
    # gave when it took a whole SystemParams, bit for bit
    survival = run_zeno(tau=tau, n_measurements=n, J=4.0e9, gamma=1.0e6)
    assert (survival[1].hex(), survival[-1].hex()) == (first, last)
    assert survival.tobytes() == (survival[1] ** np.arange(n + 1)).tobytes()


def test_run_matches_exact_law_at_every_step():
    survival = run_zeno(tau=1e-11, n_measurements=100, **FREE)
    p1 = np.cos(4e9 * 1e-11) ** 2
    for k in range(101):
        assert abs(survival[k] - p1**k) < 1e-9, k
    # projective reset makes every step identical when gamma = 0
    assert abs(survival[1] - p1) < 1e-12


def test_long_interval_chain_carries_no_splitting_rounding(tmp_path, capsys):
    # the step once carried omega0 = 1.5e11 s^-1, whose phase rounding moved p
    # by 6.4e-11 relative; the chain raised that to the 10^4-th power, and
    # `survival` printed 3.678735e-01
    out = tmp_path / "z.csv"
    assert main(["zeno", "--J", "1e3", "--tau", "10us", "--N", "10000", "--out", str(out)]) == 0
    assert "survival = 3.678733e-01\n" in capsys.readouterr().out
    survival = float(out.read_text().splitlines()[-1].split(",")[1])
    with mpmath.workdps(40):
        exact = float(mpmath.cos(mpmath.mpf(1e3) * mpmath.mpf(time_quantity("10us"))) ** 20000)
    # p is within a few roundings of cos^2(J tau), and the chain raises it N-fold
    assert abs(survival / exact - 1.0) <= 10000 * 4.0 * np.finfo(float).eps


def test_times_grid(tmp_path):
    # run_zeno returns the curve alone; `zeno --out` writes it against k * tau
    survival = run_zeno(tau=2e-11, n_measurements=5, **FREE)
    assert survival.shape == (6,)
    out = tmp_path / "z.csv"
    assert main(["zeno", "--tau", "2e-11", "--N", "5", "--out", str(out)]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.allclose(data[:, 0], 2e-11 * np.arange(6))
    assert np.array_equal(data[:, 1], survival)


def test_out_is_run_zenos_curve_byte_for_byte(tmp_path, capsys):
    # `zeno --out` writes p**k a block of k at a time, and prints p**N, without
    # run_zeno's whole curve; over three blocks and a row, the text is the curve's
    tau, n = 1e-13, 3 * BLOCK + 1
    out = tmp_path / "z.csv"
    assert main(["zeno", "--tau", "1e-13", "--N", str(n), "--gamma", "1e8",
                 "--out", str(out)]) == 0
    survival = run_zeno(tau, n, J=4.0e9, gamma=1e8)
    rows = "".join("%.16e,%.16e\n" % (k * tau, s) for k, s in enumerate(survival))
    assert out.read_bytes() == ("t_s,survival\n" + rows).encode()
    assert f"survival = {survival[-1]:.6e}\n" in capsys.readouterr().out


def test_unwritable_out_prints_nothing_but_the_error(tmp_path, capsys):
    # the six result lines were once printed before the CSV failed to open
    argv = ["zeno", "--tau", "1e-13", "--T", "1e-9", "--out", str(tmp_path)]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_report_lines_precede_the_wrote_line(tmp_path, capsys):
    out = tmp_path / "z.csv"
    assert main(["zeno", "--tau", "1e-13", "--T", "1e-9", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" = ")[0] for line in lines[:-1]] == [
        "tau_s", "n_measurements", "total_time_s", "survival", "survival_exact_gamma0",
        "survival_gaussian"]
    assert lines[-1] == f"wrote {out}"


def test_survival_monotone_in_step_count():
    survival = run_zeno(tau=1e-11, n_measurements=50, **FREE_DEPH)
    assert np.all(np.diff(survival) <= 0.0)


def test_more_frequent_measurement_preserves_better():
    # fixed T = 1 ns
    finals = []
    for tau, n in ((1e-10, 10), (1e-11, 100), (5e-12, 200)):
        finals.append(run_zeno(tau=tau, n_measurements=n, **FREE)[-1])
    assert finals[0] < finals[1] < finals[2]


def test_dephasing_lowers_survival():
    cold = run_zeno(tau=1e-11, n_measurements=100, **FREE)
    hot = run_zeno(tau=1e-11, n_measurements=100, J=4.0e9, gamma=5.0e7)
    assert np.all(hot[1:] < cold[1:])
    assert np.all(hot <= cold + 1e-15)


def test_no_coupling_means_no_decay():
    survival = run_zeno(tau=1e-10, n_measurements=20, J=0.0, gamma=0.0)
    assert np.allclose(survival, 1.0, atol=1e-12)


@st.composite
def zeno_windows(draw):
    """Rates and one interval inside the Zeno window tau < 1/J, with the edge
    cases drawn on purpose: J = 0 (no window), gamma = 0 and gamma = 2J."""
    j = draw(st.just(0.0) | st.floats(1e6, 1e10))
    gamma = draw(st.sampled_from((0.0, 2.0 * j)) | st.floats(0.0, 1e11))
    params = SystemParams(omega0=draw(st.floats(1e9, 1e12)), J=j, gamma=gamma)
    fraction = draw(st.floats(1e-6, 1.0))
    if j == 0.0:
        return params, fraction * 1e-6
    return params, min(fraction / j, np.nextafter(1.0 / j, 0.0))  # the window is open


@settings(max_examples=300, deadline=None, derandomize=True)
@given(zeno_windows())
def test_step_probability_stays_above_the_window_floor(window):
    # inside the window a step keeps |f> with p > 0.2915, so the chain is never
    # extinguished.  That floor is p's infimum 0.2915177379, approached at
    # gamma = 0.0435 J as J tau -> 1: weak dephasing takes p below its gamma = 0
    # value cos^2(J tau), which is >= cos^2(1) = 0.2919
    params, tau = window
    p = run_zeno(tau=tau, n_measurements=1, J=params.J, gamma=params.gamma)[1]
    assert p > 0.2915
    f = named_state("f")
    exact = population(closed_form_free(pure_density(f), params, tau), f)
    # a few roundings of p, and the step's, which grows with its fastest rate;
    # the splitting drops out of <f|rho|f>, so it does not count
    rate = fastest_rate(replace(params, omega0=0.0))
    assert abs(p - exact) <= 4.0 * np.finfo(float).eps * (1.0 + rate * tau)
