"""Non-finite input gives a documented exit code on one stderr line.

Every numeric leaf of the golden CLI inputs is set to NaN and to Infinity in
turn: each is refused with exit 2 and a message naming its field, scalar or
array entry alike.  Every subcommand gets each bad ``--tol``.  Each run must
exit 2 or 3 with exactly one stderr line; the ``budget`` fixture turns a
hang into a failure.  Library arguments, matrices included, are refused as
ValueErrors naming the argument.
"""

import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest

import scattergate
from scattergate.algebra import (
    CNOT,
    HADAMARD,
    SchmidtDecomposition,
    entanglement_verdict,
    gate_distance,
    kron,
    operator_schmidt,
    phase_gate,
    su11_to_su2,
    tau,
)
from scattergate.cli import build_parser, main
from scattergate.direct1d import (
    BoundState,
    SechSquared,
    SquareWell,
    Zero,
    find_bound_states,
    momentum_grid,
    solve_scattering,
)
from scattergate.dispersion import sample_reflection
from scattergate.fuchsian import gauge_to_su2, lorentzian_to_fuchsian, monodromy
from scattergate.glm import recover_potential, recover_pulse, transmission_a_two_level
from scattergate.twolevel import (
    DipoleParams,
    LorentzianPulse,
    LorentzianPulseSum,
    PulseSpec,
    dipole_hamiltonian,
    scattering_matrix,
)
from test_glm import pole_data, soliton_data
from test_golden import cli_cases

BAD = {"NaN": float("nan"), "Infinity": float("inf")}


def _leaves(doc, path=()):
    if isinstance(doc, (int, float)):
        yield path
    elif isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _leaves(value, path + (key,))


def _documents(argv):
    # flag -> JSON input file of one golden case
    return {flag: path for flag, path in zip(argv, argv[1:]) if path.endswith(".json")}


def _sweep():
    with tempfile.TemporaryDirectory() as tmp:
        for case, (name, argv) in enumerate(cli_cases(tmp)):
            for flag, path in _documents(argv).items():
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                for leaf in _leaves(doc):
                    for bad in BAD:
                        label = f"{name} {flag} {'/'.join(map(str, leaf))}={bad}"
                        yield pytest.param(case, flag, leaf, bad, id=label)


def assert_one_line_failure(code, out, err):
    assert code in (2, 3), err
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert json.loads(lines[0])["error"]["code"] == code


@pytest.mark.parametrize("case, flag, leaf, bad", list(_sweep()))
def test_non_finite_leaf(case, flag, leaf, bad, tmp_path, capsys, budget):
    # refused where it is read, naming its field: a complex array f is
    # written as re_f and im_f, and a nested leaf names the top-level field
    _, argv = cli_cases(str(tmp_path))[case]
    path = _documents(argv)[flag]
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    node = doc
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = BAD[bad]
    bad_path = os.path.join(str(tmp_path), "bad.json")
    with open(bad_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    argv = [bad_path if a == path else a for a in argv]
    code = main(argv)
    out, err = capsys.readouterr()
    assert_one_line_failure(code, out, err)
    assert code == 2
    field = leaf[0].removeprefix("re_").removeprefix("im_")
    assert json.loads(err)["error"]["message"].startswith(f"ValueError: {field}: "), err


def _tol_argvs(tmp):
    return [argv for _, argv in cli_cases(tmp)] + [["gate", "--target", "not"]]


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("case", range(7))
def test_bad_tol_is_a_parse_error(case, tol, tmp_path, capsys, budget):
    code = main(_tol_argvs(str(tmp_path))[case] + ["--tol", tol])
    assert_one_line_failure(code, *capsys.readouterr())
    assert code == 2


# finite options whose grid span overflows
OVERFLOWING_GRID = ["--kmin=-1e308", "--kmax", "1e308"]
# a positive momentum whose solve overflows: numpy warns and the solve exits 3
WARNING_MOMENTUM = ["--kmin", "1e-308"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("case, option", [
    ("direct", "--kmin"), ("direct", "--kmax"),
    ("inverse potential", "--kmin"), ("inverse potential", "--kmax"),
    ("gate", "--phi"), ("gate", "--kmin"), ("gate", "--kmax"),
    ("twolevel", "--zeta"), ("twolevel", "--kmin"), ("twolevel", "--kmax"),
])
def test_non_finite_option_is_a_parse_error(case, option, value, tmp_path, capsys, budget):
    argv = dict(cli_cases(str(tmp_path)), gate=["gate", "--target", "phase"])[case]
    code = main(argv + [f"{option}={value}"])
    out, err = capsys.readouterr()
    assert_one_line_failure(code, out, err)
    assert code == 2
    message = json.loads(err)["error"]["message"]
    assert message == f"argument {option}: {value} is not a finite float"


@pytest.mark.parametrize("option, text, message", [
    pytest.param(option, text, message, id=f"{option}={text}") for option, text, message in [
        ("--tol", "0", "0.0 is not positive"),
        ("--tol", "-1", "-1.0 is not positive"),
        ("--tol", "nan", "nan is not a finite float"),
        ("--tol", "tight", "could not convert string to float: 'tight'"),
        ("--n", "0", "0.0 is not positive"),
        ("--n", "2.5", "2.5 is not a finite int"),
        ("--n", "ten", "could not convert string to float: 'ten'"),
    ]])
def test_bad_number_option_names_the_option_and_value(option, text, message, tmp_path, capsys,
                                                      budget):
    # every number option takes the codec's field rule, after float(text)
    direct = cli_cases(str(tmp_path))[0][1]
    code = main(direct + [option, text])
    out, err = capsys.readouterr()
    assert_one_line_failure(code, out, err)
    assert code == 2
    assert json.loads(err)["error"]["message"] == f"argument {option}: {message}"


def test_grid_size_reads_as_an_int_field():
    # "1e3" is the integer 1000, as an int field of a document reads it
    args = build_parser().parse_args(["direct", "--potential", "p.json", "--n", "1e3"])
    assert type(args.n) is int and args.n == 1000


def test_numpy_warnings_stay_off_stderr(tmp_path):
    # a fresh interpreter: pytest would otherwise record the warnings itself
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(scattergate.__file__)), env.get("PYTHONPATH", "")]
    )
    direct = cli_cases(str(tmp_path))[0][1]
    run = subprocess.run([sys.executable, "-m", "scattergate", *direct, *WARNING_MOMENTUM],
                         env=env, capture_output=True, text=True, timeout=30)
    assert_one_line_failure(run.returncode, run.stdout, run.stderr)


def test_warnings_reach_the_debug_log(tmp_path, capsys, monkeypatch, budget):
    monkeypatch.setenv("SCATTERGATE_LOG", "debug")
    direct = cli_cases(str(tmp_path))[0][1]
    before = warnings.showwarning
    code = main(direct + WARNING_MOMENTUM)
    err = capsys.readouterr().err
    assert code == 3
    assert "RuntimeWarning" in err
    assert err.splitlines()[-1].startswith('{"error"')
    assert warnings.showwarning is before


@pytest.mark.parametrize("case", ["inverse potential", "gate", "twolevel"])
def test_overflowing_grid_span_names_the_options(case, tmp_path, capsys, budget):
    cases = dict(cli_cases(str(tmp_path)))
    pulse = cases["twolevel"][2]
    argv = dict(cases, gate=["gate", "--target", "hadamard"],
                twolevel=["twolevel", "--pulse", pulse, "--n", "3"])[case]
    code = main(argv + OVERFLOWING_GRID)
    out, err = capsys.readouterr()
    assert_one_line_failure(code, out, err)
    assert code == 2
    assert "--kmin/--kmax span" in err and "overflows" in err


def test_spaced_negative_exponent_reaches_the_span_check(tmp_path, capsys, budget):
    # "--kmin -1e308" is read as a value, not as an unknown flag
    pulse = dict(cli_cases(str(tmp_path)))["twolevel"][2]
    code = main(["twolevel", "--pulse", pulse, "--n", "3", "--kmin", "-1e308", "--kmax", "1e308"])
    out, err = capsys.readouterr()
    assert_one_line_failure(code, out, err)
    assert code == 2
    assert "--kmin/--kmax span" in err and "overflows" in err


@pytest.mark.parametrize("kmin, code, words", [
    ("1e-320", 2, "momentum 1e-320 is too small: 1/(2k) overflows"),
    # the solve finishes, but |a|^2 overflows a Python float
    ("1e-200", 3, "|T|^2 + |R|^2 - 1 = inf at k = 1e-200"),
])
def test_tiny_momentum_fails_on_one_line(kmin, code, words, tmp_path, capsys, budget):
    sech = os.path.join(str(tmp_path), "sech.json")
    with open(sech, "w", encoding="utf-8") as fh:
        json.dump({"variant": "sech_squared", "eta": 1.0}, fh)
    got = main(["direct", "--potential", sech, "--kmin", kmin, "--n", "1"])
    out, err = capsys.readouterr()
    assert_one_line_failure(got, out, err)
    assert got == code
    assert words in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("case", ["gate", "inverse potential"])
def test_huge_sample_grid_names_the_kernel_grid(case, tmp_path, capsys, budget):
    # finite nodes near 1e300 ask for a kernel table of ~1e302 points
    argv = dict(cli_cases(str(tmp_path)), gate=["gate", "--target", "hadamard"])[case]
    code = main(argv + ["--kmin", "1e300", "--kmax", "1e301", "--n", "5"])
    out, err = capsys.readouterr()
    assert_one_line_failure(code, out, err)
    assert code == 2
    assert "kernel z-grid over [2e+300" in err and "for momenta up to |k| =" in err


INF = float("inf")
NAN = float("nan")
WELL = SechSquared(eta=1.0)
# windows that are empty, so no propagation runs: the solve answers a = 1, b = 0
# (the far well's phase k (x0 + x1) is beyond the float range)
EMPTY = {"zero": Zero(), "far well": SquareWell(1.0, 1e308, 1e-300)}
EMPTY_SUM = PulseSpec(LorentzianPulseSum(terms=()))
SOLITON = soliton_data([BoundState(1.0, 1.0)])
PULSE = PulseSpec(LorentzianPulse(a=1.0, b=0.25))
SYSTEM, LOOP = lorentzian_to_fuchsian(2.0, 0.25)
X = np.linspace(-1.0, 1.0, 5)
DIPOLE = DipoleParams(d_A=1.0, d_B=0.5j, W_plus_A=1.0, W_minus_A=-1.0, W_plus_B=0.5,
                      W_minus_B=-0.5)


def refusal(name, value):
    # the anchored message of the codec's field rule for a bad float argument
    if np.isfinite(value):
        return f"^{name}: {value!r} is not positive$"
    return f"^{name}: {value!r} is not a finite float$"


def _bad_arguments():
    # (id, call, anchored message); each argument check runs the codec's field rule
    yield "solve k=inf", lambda: solve_scattering(WELL, INF), refusal("k", INF)
    yield ("bound states eta_max=inf", lambda: find_bound_states(WELL, INF),
           refusal("eta_max", INF))
    yield "grid kmax=inf", lambda: momentum_grid(0.5, INF, 3), "^need a finite kmax > kmin$"
    yield "grid kmin=inf", lambda: momentum_grid(INF, 5.0, 1), refusal("kmin", INF)
    yield "sample dk=0", lambda: sample_reflection(WELL, dk=0.0), refusal("dk", 0.0)
    yield "sample dk=-1", lambda: sample_reflection(WELL, dk=-1.0), refusal("dk", -1.0)
    yield "sample kmax=inf", lambda: sample_reflection(WELL, kmax=INF), "^need a finite kmax > "
    for bad in (0.0, -1e-8, NAN):
        yield (f"potential tail_tol={bad}", lambda bad=bad: recover_potential(SOLITON, X, tail_tol=bad),
               refusal("tail_tol", bad))
        yield (f"pulse tail_tol={bad}", lambda bad=bad: recover_pulse(pole_data(), X, tail_tol=bad),
               refusal("tail_tol", bad))
    yield "potential ds=inf", lambda: recover_potential(SOLITON, X, ds=INF), refusal("ds", INF)
    yield "pulse ds=inf", lambda: recover_pulse(pole_data(), X, ds=INF), refusal("ds", INF)
    for bad in (0.0, NAN):
        yield (f"solve rtol={bad}", lambda bad=bad: solve_scattering(WELL, 1.0, rtol=bad),
               refusal("rtol", bad))
        yield (f"S-matrix rtol={bad}", lambda bad=bad: scattering_matrix(PULSE, rtol=bad),
               refusal("rtol", bad))
        yield (f"monodromy rtol={bad}", lambda bad=bad: monodromy(SYSTEM, LOOP, rtol=bad),
               refusal("rtol", bad))
    # an empty window checks rtol too, although it propagates nothing
    for label, q in EMPTY.items():
        yield (f"solve {label} rtol=nan", lambda q=q: solve_scattering(q, 1.0, rtol=NAN),
               refusal("rtol", NAN))
    yield ("S-matrix empty sum rtol=nan", lambda: scattering_matrix(EMPTY_SUM, rtol=NAN),
           refusal("rtol", NAN))
    # the SU(1,1) check of tau and su11_to_su2 reads atol first
    for bad in (NAN, INF, 0.0, -1e-8):
        yield (f"SU(1,1) atol={bad}", lambda bad=bad: tau(1.0, 0.0, atol=bad),
               refusal("atol", bad))
        yield (f"su11_to_su2 atol={bad}", lambda bad=bad: su11_to_su2(1.0, 0.0, atol=bad),
               refusal("atol", bad))
    # off the group too: the atol refusal comes before the pair's defect
    yield "tau atol=nan", lambda: tau(5.0, 0.0, atol=NAN), refusal("atol", NAN)
    yield "phase_gate phi=nan", lambda: phase_gate(NAN), refusal("phi", NAN)
    yield ("Schmidt coefficients nan", lambda: SchmidtDecomposition(np.full(4, NAN), None, None),
           r"^sum s_m\^2 = nan, expected 4 for a unitary$")
    yield "reflection_at k=nan", lambda: SOLITON.reflection_at(NAN), refusal("k", NAN)
    yield ("dipole field=nan", lambda: dipole_hamiltonian(DIPOLE, NAN, 0.0),
           "^field: nan is not a finite complex$")
    yield ("dipole interaction=nan", lambda: dipole_hamiltonian(DIPOLE, 0.0, NAN),
           refusal("interaction", NAN))
    # the dispersion integral is singular at a real zeta on a grid end, even for r = 0
    yield ("transmission zeta=nan", lambda: transmission_a_two_level(pole_data(), NAN),
           "^zeta: nan is not a finite complex$")
    for end in (-4.0, 4.0):
        yield (f"transmission zeta={end}",
               lambda end=end: transmission_a_two_level(pole_data(), end),
               f"^zeta: {end!r} is an end of the data grid$")
    yield ("bound states eta_max=nan", lambda: find_bound_states(WELL, NAN),
           refusal("eta_max", NAN))
    yield "lorentzian a=inf", lambda: lorentzian_to_fuchsian(INF, 0.25), refusal("a", INF)
    yield "lorentzian b=nan", lambda: lorentzian_to_fuchsian(1.5, NAN), refusal("b", NAN)


@pytest.mark.parametrize("call, message", [
    pytest.param(call, message, id=label) for label, call, message in _bad_arguments()])
def test_bad_scalar_argument_is_a_value_error(call, message, budget):
    # refused up front (exit 2 through the CLI), with no numpy warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("q", EMPTY.values(), ids=EMPTY.keys())
def test_empty_window_solves_exactly(q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = solve_scattering(q, 1.0)
    assert (s.a, s.b) == (1.0, 0.0)


def test_empty_sum_smatrix_is_the_identity():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(scattering_matrix(EMPTY_SUM), np.eye(2))


def _bad_matrices():
    # (id, call, argument); a 2x2 and a 4x4 unitary with one entry made non-finite
    for label, bad in (("nan", NAN), ("inf", INF)):
        u2, u4 = HADAMARD.copy(), CNOT.copy()
        u2[0, 1] = u4[2, 3] = bad
        for name, call, arg in [
            ("gate_distance", lambda u2=u2: gate_distance(u2, HADAMARD), "u"),
            ("gate_distance", lambda u2=u2: gate_distance(HADAMARD, u2), "v"),
            ("operator_schmidt", lambda u4=u4: operator_schmidt(u4), "u"),
            ("entanglement_verdict", lambda u4=u4: entanglement_verdict(u4), "u"),
            ("kron", lambda u2=u2: kron(u2, HADAMARD), "u"),
            ("kron", lambda u2=u2: kron(HADAMARD, u2), "v"),
            ("gauge_to_su2", lambda u2=u2: gauge_to_su2(u2), "m"),
        ]:
            yield pytest.param(call, arg, label, id=f"{name} {arg}={label}")


@pytest.mark.parametrize("call, arg, label", list(_bad_matrices()))
def test_non_finite_matrix_is_a_value_error(call, arg, label):
    # a NaN matrix must not read as a perfect match (gate_distance 0.0) or reach the SVD
    with pytest.raises(ValueError, match=rf"^{arg}: \({label}\+0j\) is not a finite complex number$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: momentum_grid(0.5, 5.0, 2.5), "^n: 2.5 is not a finite int$"),
    (lambda: sample_reflection(WELL, kmax=2.0, dk=0.01, n_solve=2.5),
     "^n_solve: 2.5 is not a finite int$"),
    (lambda: sample_reflection(WELL, kmax=2.0, dk=0.01, n_solve=4.5),
     "^n_solve: 4.5 is not a finite int$"),
    (lambda: sample_reflection(WELL, kmax=2.0, dk=0.01, n_solve=2), "^need n_solve >= 3, got 2$"),
    (lambda: sample_reflection(WELL, kmax=2.0, dk=0.01, n_solve=1), "^need n_solve >= 3, got 1$"),
    (lambda: sample_reflection(WELL, kmax=2.0, dk=0.01, n_solve=0), "^need n_solve >= 3, got 0$"),
], ids=["grid n=2.5", "sample n_solve=2.5", "sample n_solve=4.5", "sample n_solve=2",
        "sample n_solve=1", "sample n_solve=0"])
def test_grid_size_must_be_an_integer(call, message, budget):
    with pytest.raises(ValueError, match=message):
        call()


def test_integral_float_grid_sizes_still_work(budget):
    assert np.array_equal(momentum_grid(0.5, 5.0, 3.0), momentum_grid(0.5, 5.0, 3))
    four = sample_reflection(WELL, kmax=2.0, dk=0.01, n_solve=4.0)
    assert np.array_equal(four.R, sample_reflection(WELL, kmax=2.0, dk=0.01, n_solve=4).R)
