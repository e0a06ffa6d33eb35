"""Non-finite input gives a documented exit code on one stderr line.

Every numeric leaf of the golden CLI inputs is set to NaN and to Infinity in
turn, and every subcommand gets each bad ``--tol``.  Each run must exit 2 or
3 with exactly one stderr line; the ``budget`` fixture turns a hang into a
failure.
"""

import json
import os
import subprocess
import sys
import tempfile
import warnings

import pytest

import scattergate
from scattergate.cli import main
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
    assert_one_line_failure(code, *capsys.readouterr())


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
    assert f"argument {option}: must be a finite number" in err


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
