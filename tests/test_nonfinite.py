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


def test_numpy_warnings_stay_off_stderr(tmp_path):
    # a fresh interpreter: pytest would otherwise record the warnings itself
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(scattergate.__file__)), env.get("PYTHONPATH", "")]
    )
    direct = cli_cases(str(tmp_path))[0][1]
    for argv in (direct + ["--kmax", "inf"], ["gate", "--target", "phase", "--phi", "inf"]):
        run = subprocess.run([sys.executable, "-m", "scattergate", *argv], env=env,
                             capture_output=True, text=True, timeout=30)
        assert_one_line_failure(run.returncode, run.stdout, run.stderr)


def test_warnings_reach_the_debug_log(tmp_path, capsys, monkeypatch, budget):
    monkeypatch.setenv("SCATTERGATE_LOG", "debug")
    direct = cli_cases(str(tmp_path))[0][1]
    before = warnings.showwarning
    code = main(direct + ["--kmax", "inf"])
    err = capsys.readouterr().err
    assert code == 2
    assert "RuntimeWarning" in err
    assert err.splitlines()[-1].startswith('{"error"')
    assert warnings.showwarning is before
