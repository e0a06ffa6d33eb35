import json
import pathlib
import re

import numpy as np
import pytest
from scipy.linalg import expm

from scattergate.algebra import SIGMA3
from scattergate.cli import build_parser, main
from scattergate.fuchsian import FuchsianSystem, CircleLoop, lorentzian_to_fuchsian
from scattergate.twolevel import DipoleParams, LorentzianPulse, PulseSpec, scattering_matrix


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sech_file(tmp_path):
    return write_json(tmp_path / "sech2.json", {"variant": "sech_squared", "eta": 1.0})


@pytest.fixture
def soliton_data_file(tmp_path):
    k = np.linspace(-5.0, 5.0, 21)
    doc = {
        "k": k.tolist(),
        "re_R": [0.0] * k.size,
        "im_R": [0.0] * k.size,
        "bound_states": [{"eta": 1.0, "norming": 1.0}],  # kernel weight 2: centered
    }
    return write_json(tmp_path / "soliton.json", doc)


class TestDirect:
    def test_reflectionless_csv(self, capsys, sech_file):
        code, out, err = run_cli(
            capsys,
            ["direct", "--potential", sech_file, "--kmin", "0.5", "--kmax", "5", "--n", "16"],
        )
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "k,re_a,im_a,re_b,im_b,T2,R2"
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert rows.shape == (16, 7)
        assert np.all(rows[:, 6] <= 1e-10)
        k = rows[:, 0]
        a = rows[:, 1] + 1j * rows[:, 2]
        np.testing.assert_allclose(a, (k - 1j) / (k + 1j), atol=1e-8)

    def test_rerun_is_byte_identical(self, capsys, sech_file):
        argv = ["direct", "--potential", sech_file, "--n", "8"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_json_out_round_trips_17_digits(self, capsys, sech_file, tmp_path):
        out_path = tmp_path / "direct.json"
        code, _, _ = run_cli(
            capsys,
            ["direct", "--potential", sech_file, "--n", "4", "--out", str(out_path)],
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["potential"]["variant"] == "sech_squared"
        from scattergate.direct1d import SechSquared, momentum_grid, solve_scattering

        pot = SechSquared(eta=1.0)
        for k, a in zip(doc["k"], doc["a"]):
            c = solve_scattering(pot, k)
            assert complex(a[0], a[1]) == c.a  # exact: 17 digits is lossless

    def test_csv_out_writes_file(self, capsys, sech_file, tmp_path):
        out_path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, ["direct", "--potential", sech_file, "--n", "4", "--out", str(out_path)]
        )
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("k,re_a")


class TestInverseRoundTrip:
    def test_potential_recovery_feeds_direct(self, capsys, soliton_data_file, tmp_path):
        rec_path = tmp_path / "recovered.json"
        code, _, _ = run_cli(
            capsys,
            ["inverse", "--data", soliton_data_file, "--kmin", "-6", "--kmax", "6",
             "--n", "61", "--out", str(rec_path)],
        )
        assert code == 0
        doc = json.loads(rec_path.read_text())
        assert doc["kind"] == "potential" and doc["variant"] == "tabulated"
        x = np.asarray(doc["x"])
        np.testing.assert_allclose(doc["q"], 2.0 / np.cosh(x) ** 2, atol=2e-4)

        code, out, _ = run_cli(
            capsys,
            ["direct", "--potential", str(rec_path), "--kmin", "0.5", "--kmax", "2.5", "--n", "5"],
        )
        assert code == 0
        rows = np.array(
            [[float(v) for v in ln.split(",")] for ln in out.strip().split("\n")[1:]]
        )
        # reflectionless input data reproduced within the inversion tolerance
        assert np.all(rows[:, 6] <= 1e-6)
        a = rows[:, 1] + 1j * rows[:, 2]
        np.testing.assert_allclose(a, (rows[:, 0] - 1j) / (rows[:, 0] + 1j), atol=1e-3)

    def test_pulse_recovery(self, capsys, tmp_path):
        zeta = np.linspace(-5.0, 5.0, 21)
        doc = {
            "zeta": zeta.tolist(),
            "re_r": [0.0] * zeta.size,
            "im_r": [0.0] * zeta.size,
            "poles": [[0.0, 1.0]],
            "norming": [[0.0, -1.0]],
        }
        data_path = write_json(tmp_path / "pulse_data.json", doc)
        code, out, _ = run_cli(
            capsys,
            ["inverse", "--data", data_path, "--kmin", "-6", "--kmax", "6", "--n", "49"],
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["kind"] == "pulse"
        t = np.asarray(rec["t"])
        E = np.asarray(rec["re_E"]) + 1j * np.asarray(rec["im_E"])
        np.testing.assert_allclose(E, 2j / np.cosh(2.0 * t), atol=2e-3)


class TestGate:
    def test_not_family(self, capsys):
        code, out, _ = run_cli(capsys, ["gate", "--target", "not"])
        assert code == 0
        doc = json.loads(out)
        assert doc["monotone"] is True
        assert doc["final_distance"] == pytest.approx(0.01, abs=5e-5)

    def test_phase_family(self, capsys):
        code, out, _ = run_cli(capsys, ["gate", "--target", "phase"])
        assert code == 0
        doc = json.loads(out)
        assert doc["monotone"] is True
        assert doc["final_distance"] <= 0.02

    def test_family_csv(self, capsys, tmp_path):
        out_path = tmp_path / "family.csv"
        code, _, _ = run_cli(capsys, ["gate", "--target", "not", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "n,distance" and len(lines) == 101

    def test_hadamard_report_with_reduced_window(self, capsys):
        # small recovery window: checks the plumbing, not the frozen accuracy
        code, out, _ = run_cli(
            capsys,
            ["gate", "--target", "hadamard", "--kmin", "-20", "--kmax", "16",
             "--n", "181", "--tol", "1e-6"],
        )
        assert code == 0
        doc = json.loads(out)
        # the distance metric itself bottoms out near sqrt(eps) for equal gates
        assert doc["example"]["distance_to_hadamard"] <= 1e-7
        assert doc["pipeline"]["max_error"] < 0.2
        assert doc["potential"]["variant"] == "tabulated"


class TestTwoLevel:
    def test_single_point_matches_library(self, capsys, tmp_path):
        pulse_path = write_json(tmp_path / "lor.json", {"variant": "lorentzian", "a": 1.0, "b": 0.25})
        code, out, _ = run_cli(capsys, ["twolevel", "--pulse", pulse_path])
        assert code == 0
        doc = json.loads(out)
        s = np.array([[complex(*v) for v in row] for row in doc["S"]])
        np.testing.assert_allclose(s, [[0.0, -1j], [-1j, 0.0]], atol=1e-6)

    def test_scan_matches_pointwise_calls(self, capsys, tmp_path):
        pulse_path = write_json(tmp_path / "lor.json", {"variant": "lorentzian", "a": 2.0, "b": 0.2})
        code, out, _ = run_cli(
            capsys,
            ["twolevel", "--pulse", pulse_path, "--kmin", "-1", "--kmax", "1", "--n", "5"],
        )
        assert code == 0
        doc = json.loads(out)
        for z, a in zip(doc["zeta"], doc["a"]):
            spec = PulseSpec(LorentzianPulse(2.0, 0.2), detuning=-2.0 * z)
            expect = scattering_matrix(spec)
            assert abs(complex(*a) - expect[0, 0]) < 1e-9

    def test_zeta_flag_sets_spectral_point(self, capsys, tmp_path):
        pulse_path = write_json(tmp_path / "lor.json", {"variant": "lorentzian", "a": 2.0, "b": 0.2})
        code, out, _ = run_cli(capsys, ["twolevel", "--pulse", pulse_path, "--zeta", "0.7"])
        assert code == 0
        doc = json.loads(out)
        expect = scattering_matrix(PulseSpec(LorentzianPulse(2.0, 0.2), detuning=-1.4))
        assert abs(complex(*doc["a"]) - expect[0, 0]) < 1e-9

    def test_negative_value_in_exponent_form(self, capsys, tmp_path):
        # argparse alone would take -2e0 for a flag
        pulse_path = write_json(tmp_path / "lor.json", {"variant": "lorentzian", "a": 1.0, "b": 0.25})
        argv = ["twolevel", "--pulse", pulse_path, "--kmax", "2", "--n", "3"]
        spaced = run_cli(capsys, argv + ["--kmin", "-2e0"])
        joined = run_cli(capsys, argv + ["--kmin=-2"])
        assert spaced[0] == 0
        assert spaced == joined

    def test_window_key_is_ignored(self, capsys, tmp_path):
        # a window wider than the envelope once let the integrator step over
        # the pulse (a = 1, b = 0); the scan and --zeta now agree bit for bit
        env = {"variant": "rectangular", "x": [0.3, -0.1], "half_width": 2.0}
        outs = []
        for doc in ({"envelope": env, "window": [-50, 50]}, {"envelope": env}):
            path = write_json(tmp_path / "rect.json", doc)
            for point in (["--kmin", "-0.35", "--n", "1"], ["--zeta", "-0.35"]):
                code, out, _ = run_cli(capsys, ["twolevel", "--pulse", path, *point])
                assert code == 0
                outs.append(out)
        assert outs[0] == outs[2] and outs[1] == outs[3]
        scan, point = json.loads(outs[0]), json.loads(outs[1])
        assert (scan["a"][0], scan["b"][0]) == (point["a"], point["b"])
        # S = R(T) e^{-2iTK} R(T) with R = e^{-i delta t sigma3/2} and
        # K = [[-delta/2, x], [conj x, delta/2]], here at delta = 0.7, T = 2
        x, delta, t = 0.3 - 0.1j, 0.7, 2.0
        r = np.diag(np.exp([-0.5j * delta * t, 0.5j * delta * t]))
        want = r @ expm(-2j * t * np.array([[-delta / 2, x], [np.conj(x), delta / 2]])) @ r
        s = np.array([[complex(*v) for v in row] for row in point["S"]])
        np.testing.assert_allclose(s, want, rtol=0, atol=1e-10)

    def test_zeta_and_grid_conflict(self, capsys, tmp_path):
        pulse_path = write_json(tmp_path / "lor.json", {"variant": "lorentzian", "a": 1.0, "b": 0.1})
        code, _, err = run_cli(
            capsys, ["twolevel", "--pulse", pulse_path, "--zeta", "1", "--n", "3"]
        )
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "parse"


class TestEntangle:
    def params_doc(self, **overrides):
        p = DipoleParams(
            d_A=0.8 + 0.3j, d_B=1.1 - 0.2j,
            W_plus_A=1.0, W_minus_A=-0.3, W_plus_B=0.7, W_minus_B=-0.5,
            x=0.2 + 0.1j, y=0.6, T=1.0,
        )
        doc = p.to_json()
        doc.update(overrides)
        return doc

    def test_entangling_verdict(self, capsys, tmp_path):
        path = write_json(tmp_path / "dipole.json", self.params_doc())
        code, out, _ = run_cli(capsys, ["entangle", "--params", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "entangling"
        values = doc["schmidt_values"]
        assert values == sorted(values, reverse=True)
        assert values[1] > 1e-3

    def test_tol_is_refused(self, capsys, tmp_path):
        # the pair gate is closed form: there is no tolerance to set
        path = write_json(tmp_path / "dipole.json", self.params_doc())
        code, out, err = run_cli(capsys, ["entangle", "--params", path, "--tol", "1e-3"])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["kind"] == "parse"

    def test_product_verdict_without_coupling(self, capsys, tmp_path):
        path = write_json(tmp_path / "dipole.json", self.params_doc(y=0.0))
        code, out, _ = run_cli(capsys, ["entangle", "--params", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "product"


class TestMonodromy:
    def test_one_pole_matches_exponential(self, capsys, tmp_path):
        sys_doc = FuchsianSystem(poles=(0.0,), residues=(0.25 * SIGMA3,)).to_json()
        loop_doc = CircleLoop(center=0.0, radius=1.0).to_json()
        code, out, _ = run_cli(
            capsys,
            ["monodromy", "--system", write_json(tmp_path / "s.json", sys_doc),
             "--loop", write_json(tmp_path / "l.json", loop_doc)],
        )
        assert code == 0
        doc = json.loads(out)
        m = np.array([[complex(*v) for v in row] for row in doc["monodromy"]])
        np.testing.assert_allclose(m, np.diag([1j, -1j]), atol=1e-8)

    def test_on_contour_loop_is_numeric_failure(self, capsys, tmp_path):
        sys_obj, loop = lorentzian_to_fuchsian(2.0, 0.25)
        sys_doc = sys_obj.to_json()
        sys_doc["poles"][0] = [0.5, 0.5]  # place a pole on the circle
        loop_doc = loop.to_json()
        loop_doc["on_contour"] = True
        code, _, err = run_cli(
            capsys,
            ["monodromy", "--system", write_json(tmp_path / "s.json", sys_doc),
             "--loop", write_json(tmp_path / "l.json", loop_doc)],
        )
        assert code == 3
        assert json.loads(err)["error"]["kind"] == "numeric"


class TestFailureModes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["direct", "--potential", "no_such.json"])
        assert code == 2
        obj = json.loads(err)["error"]
        assert obj["code"] == 2 and obj["kind"] == "parse"

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, ["direct", "--potential", str(bad)])
        assert code == 2
        assert "JSON" in json.loads(err)["error"]["message"]

    def test_non_finite_parameter_is_parse_error(self, capsys, tmp_path):
        # JSON "Infinity" used to pass the eta > 0 check and solve a free particle
        path = tmp_path / "inf.json"
        path.write_text('{"variant": "sech_squared", "eta": Infinity}')
        code, out, err = run_cli(capsys, ["direct", "--potential", str(path), "--n", "4"])
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert "finite" in json.loads(err)["error"]["message"]

    def test_non_json_object_document(self, capsys, tmp_path):
        sys_doc = write_json(tmp_path / "sys.json", {"poles": [[0.0, 0.0]],
                                                      "residues": [[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]]})
        loop = write_json(tmp_path / "loop.json", [1.0, 2.0])
        code, _, err = run_cli(capsys, ["monodromy", "--system", sys_doc, "--loop", loop])
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "parse"

    def test_unknown_flag(self, capsys, sech_file):
        code, _, err = run_cli(capsys, ["direct", "--potential", sech_file, "--bogus"])
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "parse"

    def test_csv_out_without_table(self, capsys, tmp_path):
        path = write_json(tmp_path / "lor.json", {"variant": "lorentzian", "a": 1.0, "b": 0.1})
        code, _, err = run_cli(
            capsys, ["twolevel", "--pulse", path, "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_infeasible_target_maps_to_exit_4(self, capsys, monkeypatch):
        from scattergate.errors import InfeasibleTargetError
        import scattergate.cli as cli_mod

        def raise_infeasible(targets, **kw):
            raise InfeasibleTargetError("phase outside the reachable band")

        monkeypatch.setattr(cli_mod, "build_scattering_data", raise_infeasible)
        code, _, err = run_cli(capsys, ["gate", "--target", "hadamard"])
        assert code == 4
        assert json.loads(err)["error"]["kind"] == "infeasible"

    def test_bad_log_level(self, capsys, monkeypatch, sech_file):
        monkeypatch.setenv("SCATTERGATE_LOG", "chatty")
        code, _, err = run_cli(capsys, ["direct", "--potential", sech_file, "--n", "4"])
        assert code == 2
        assert "SCATTERGATE_LOG" in json.loads(err)["error"]["message"]

    def test_info_logging_goes_to_stderr(self, capsys, monkeypatch, sech_file):
        monkeypatch.setenv("SCATTERGATE_LOG", "info")
        code, out, err = run_cli(capsys, ["direct", "--potential", sech_file, "--n", "4"])
        assert code == 0
        assert "direct solve" in err
        assert out.startswith("k,re_a")


# each subcommand with --tol: the library call as bound in scattergate.cli, the
# keyword --tol must set there, and the documents the run reads
TOL_TARGETS = {
    "direct": ("solve_grid", "rtol"),
    "inverse": ("recover_potential", "tail_tol"),
    "gate": ("recover_potential", "tail_tol"),
    "twolevel": ("scattering_matrix", "rtol"),
    "monodromy": ("monodromy", "rtol"),
}
TOLERANCES = {"rtol", "tail_tol", "atol", "tol"}


def tol_argv(sub, tmp_path):
    if sub == "direct":
        return ["--potential", write_json(tmp_path / "p.json", {"variant": "zero"}), "--n", "2"]
    if sub == "inverse":
        doc = {"k": [-2.0, 0.0, 2.0], "re_R": [0.0, 0.1, 0.0], "im_R": [0.0] * 3}
        return ["--data", write_json(tmp_path / "d.json", doc), "--n", "5"]
    if sub == "gate":
        return ["--target", "hadamard", "--n", "5"]
    if sub == "twolevel":
        return ["--pulse", write_json(tmp_path / "p.json", {"variant": "lorentzian", "a": 1.0, "b": 0.1})]
    system = FuchsianSystem(poles=(0.0,), residues=(0.25 * SIGMA3,)).to_json()
    loop = CircleLoop(center=0.0, radius=1.0).to_json()
    return ["--system", write_json(tmp_path / "s.json", system),
            "--loop", write_json(tmp_path / "l.json", loop)]


class TestDeclarations:
    @pytest.mark.parametrize("tol", [None, "1e-6"])
    @pytest.mark.parametrize("sub", list(TOL_TARGETS))
    def test_tol_sets_its_declared_keyword(self, sub, tol, capsys, monkeypatch, tmp_path):
        import scattergate.cli as cli_mod
        from scattergate.errors import NumericalError

        target, keyword = TOL_TARGETS[sub]
        seen = []

        def record(*args, **kwargs):
            seen.append({k: v for k, v in kwargs.items() if k in TOLERANCES})
            raise NumericalError("stopped after the call")

        monkeypatch.setattr(cli_mod, target, record)
        monkeypatch.setattr(cli_mod, "build_scattering_data", lambda targets: None)
        argv = [sub, *tol_argv(sub, tmp_path)] + ([] if tol is None else ["--tol", tol])
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (3, ""), err
        assert seen == [{} if tol is None else {keyword: float(tol)}]

    @pytest.mark.parametrize("sub", [*TOL_TARGETS, "entangle"])
    def test_help_exits_0(self, sub, capsys):
        with pytest.raises(SystemExit) as stop:
            main([sub, "--help"])
        assert stop.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: scattergate {sub} ")
        assert ("--tol" in out) == (sub != "entangle")

    def test_readme_table_mirrors_the_declarations(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        rows = dict(re.findall(r"^\| `(\w+)` \|(.*)\|$", readme, re.M))
        parsers = next(a for a in build_parser()._actions if a.dest == "subcommand").choices
        assert rows.keys() == parsers.keys()
        for sub, parser in parsers.items():
            _, grid, tol, stdout = (cell.strip() for cell in rows[sub].split("|"))
            kmin, kmax, n = (parser.get_default(k) for k in ("kmin", "kmax", "n"))
            assert grid.startswith("none" if kmin is None else f"{kmin:g}, {kmax:g}, {n or 'none'} ")
            keyword = parser.get_default("tol_keyword")
            assert tol.startswith("none" if keyword is None else f"`{keyword}` of ")
            assert stdout == ("CSV table" if parser.get_default("csv") else "JSON")
