"""Inverse-path tests: kernel weights, potential recovery, pulse recovery.

Frozen closed forms used as oracles:
  - weight 2 and potential 2 sech^2 x for the single bound state (1, 1);
  - weights (6, 12) and potential 6 sech^2 x for the pair (1, -1), (2, +1)
    (checked offline against the determinant form of the reflectionless
    potentials);
  - Gaussian reflection data has an exactly Gaussian kernel;
  - pure-pole two-level data with norming -i at pole i gives the envelope
    2i sech(2t);
  - the weight formula g_j = 2 eta_j b_j prod_l (eta_j + eta_l)/(eta_j - eta_l)
    * exp((eta_j/2 pi) int ln(1 - |R|^2)/(k^2 + eta_j^2) dk), which the
    dispersion relation replaced, and a centred difference of a(zeta) for
    its slope at a zero.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import hankel, hilbert

from scattergate import glm
from scattergate._samples import SampleTable
from scattergate.cli import main
from scattergate.codec import from_json
from scattergate.direct1d import BoundState, SquareWell, Tabulated, solve_scattering
from scattergate.dispersion import (
    GateTarget,
    ReflectionData,
    build_scattering_data,
    sample_reflection,
)
from scattergate.errors import NumericalError
from scattergate.glm import (
    MarchenkoKernel,
    marchenko_diagonal,
    RecoveredPotential,
    RecoveredPulse,
    TwoLevelScatteringData,
    bound_state_weights,
    marchenko_kernel,
    recover_potential,
    recover_pulse,
    solve_marchenko,
    transmission_a_two_level,
    transmission_derivative_at_pole,
)
from scattergate.twolevel import TabulatedPulse

from conftest import mirrored_reflection


def soliton_data(states):
    k = np.linspace(-5.0, 5.0, 11)
    return ReflectionData(k=k, R=np.zeros(11), bound_states=tuple(states))


class TestWeights:
    def test_single_soliton_weight(self):
        (g,) = bound_state_weights(soliton_data([BoundState(1.0, 1.0)]))
        assert g == pytest.approx(2.0, abs=1e-12)

    def test_two_soliton_weights(self):
        data = soliton_data([BoundState(1.0, -1.0), BoundState(2.0, 1.0)])
        g = bound_state_weights(data)
        assert g == pytest.approx((6.0, 12.0), abs=1e-12)

    def test_weight_with_reflection_vs_quadrature(self):
        k = np.arange(-8.0, 8.0 + 5e-3, 5e-3)
        R = 0.6 * np.exp(-(k**2))
        data = ReflectionData(k=k, R=R, bound_states=(BoundState(1.0, 1.0),))
        (g,) = bound_state_weights(data)
        integral, err = quad(
            lambda z: np.log1p(-0.36 * np.exp(-2.0 * z * z)) / (z * z + 1.0),
            0.0,
            np.inf,
        )
        assert err < 1e-8
        assert g == pytest.approx(2.0 * np.exp(integral / np.pi), rel=1e-8)

    def test_degenerate_rates_rejected(self):
        data = soliton_data([BoundState(1.0, 1.0), BoundState(1.0, -1.0)])
        with pytest.raises(ValueError, match="distinct"):
            bound_state_weights(data)

    @settings(max_examples=25, deadline=None)
    @given(
        bumps=st.lists(
            st.tuples(
                st.floats(0.05, 0.2), st.floats(0.0, 3.0), st.floats(0.2, 1.0),
                st.floats(-np.pi, np.pi),
            ),
            max_size=2,
        ),
        states=st.lists(
            st.tuples(st.floats(0.3, 2.0), st.floats(0.2, 5.0), st.sampled_from([-1.0, 1.0])),
            min_size=1, max_size=3, unique_by=lambda s: round(s[0], 1),
        ),
    )
    def test_weights_match_the_closed_form(self, bumps, states):
        # mirrored |R| <= 0.8 and 1-3 distinct bound states of either sign;
        # the closed form takes its integral by the trapezoid rule too
        k = np.arange(-8.0, 8.0 + 0.01, 0.01)
        bound = tuple(BoundState(eta, sign * b) for eta, b, sign in states)
        data = ReflectionData(k=k, R=mirrored_reflection(k, bumps), bound_states=bound)
        h = np.log1p(-np.abs(data.R) ** 2)
        etas = [s.eta for s in bound]
        for s, g in zip(bound, bound_state_weights(data)):
            prod = np.prod([(s.eta + e) / (s.eta - e) for e in etas if e != s.eta])
            expo = (s.eta / (2.0 * np.pi)) * np.trapezoid(h / (k**2 + s.eta**2), k)
            want = 2.0 * s.eta * s.norming * prod * np.exp(expo)
            assert abs(g - want) <= 1e-12 * abs(want)

    def test_coincident_pulse_zeros_rejected(self):
        data = pole_data(poles=(0.5j, 0.5j), norming=(1.0, 1.0))
        with pytest.raises(ValueError, match="distinct"):
            transmission_derivative_at_pole(data, 0)
        with pytest.raises(ValueError, match="distinct"):
            recover_pulse(data, np.linspace(-1.0, 1.0, 11))

    def test_cli_coincident_pulse_zeros_exit_2(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "zeta": [-2.0, -1.0, 0.0, 1.0, 2.0], "re_r": [0.0] * 5, "im_r": [0.0] * 5,
            "poles": [[0.0, 0.5], [0.0, 0.5]], "norming": [[1.0, 0.0], [1.0, 0.0]],
        }))
        assert main(["inverse", "--data", str(path), "--n", "11"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert "distinct" in json.loads(line)["error"]["message"]


class TestKernel:
    def test_gaussian_reflection_gaussian_kernel(self):
        # (1/2pi) int 0.3 e^{-k^2} e^{ikz} dk = 0.3 e^{-z^2/4} / (2 sqrt(pi))
        k = np.arange(-8.0, 8.0 + 5e-3, 5e-3)
        data = ReflectionData(k=k, R=0.3 * np.exp(-(k**2)))
        kernel = marchenko_kernel(data, np.arange(-4.0, 6.0, 0.01))
        z = np.array([-2.3, 0.0, 1.3, 4.1])
        expect = 0.3 * np.exp(-(z**2) / 4.0) / (2.0 * np.sqrt(np.pi))
        np.testing.assert_allclose(kernel(z), expect, atol=1e-9)

    def test_bound_tail_beyond_tabulation(self):
        kernel = marchenko_kernel(
            soliton_data([BoundState(1.0, 1.0)]), np.arange(-2.0, 8.0, 0.02)
        )
        assert kernel(20.0) == pytest.approx(2.0 * np.exp(-20.0), rel=1e-12)
        assert kernel(0.0) == pytest.approx(2.0, rel=1e-9)
        with pytest.raises(ValueError, match="tabulated"):
            kernel(-3.0)

    def test_non_mirrored_data_rejected(self):
        k = np.arange(-6.0, 6.0 + 0.01, 0.01)
        R = 0.4 * np.exp(-((k - 1.5) ** 2) / 0.1)  # no mirror image at -1.5
        with pytest.raises(NumericalError, match="conj"):
            marchenko_kernel(ReflectionData(k=k, R=R), np.arange(-2.0, 6.0, 0.02))

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="uniform"):
            MarchenkoKernel(z=np.array([0.0, 1.0, 1.5, 4.0]), refl=np.zeros(4))


class TestPotentialRecovery:
    def test_one_soliton_potential(self):
        data = soliton_data([BoundState(1.0, 1.0)])
        x = np.arange(-6.0, 6.0 + 1e-9, 0.25)
        rec = recover_potential(data, x, ds=0.025)
        err = np.max(np.abs(rec.q - 2.0 / np.cosh(x) ** 2))
        assert err < 2e-4
        tab = rec.to_potential()
        assert tab(0.0) == pytest.approx(2.0, abs=2e-4)

    def test_two_soliton_potential(self):
        # ends sit at 6 sech^2 3.5 ~ 0.02, so skip the decay gate; pushing
        # the window out instead runs into the e^{2 eta_max |x|} kernel
        # conditioning on the left
        data = soliton_data([BoundState(1.0, -1.0), BoundState(2.0, 1.0)])
        x = np.arange(-3.5, 3.5 + 1e-9, 0.25)
        rec = recover_potential(data, x, ds=0.02, check_decay=False)
        err = np.max(np.abs(rec.q - 6.0 / np.cosh(x) ** 2))
        assert err < 2e-3

    def test_nystroem_step_consistency(self):
        kernel = marchenko_kernel(
            soliton_data([BoundState(1.0, 1.0)]), np.arange(-2.0, 20.0, 0.02)
        )
        coarse = marchenko_diagonal(kernel, 0.4, ds=0.04)
        fine = marchenko_diagonal(kernel, 0.4, ds=0.02)
        finest = marchenko_diagonal(kernel, 0.4, ds=0.01)
        assert abs(fine - finest) < 0.35 * abs(coarse - fine) + 1e-12
        assert abs(fine - finest) < 5e-5

    def test_square_well_round_trip(self):
        # the jump makes pointwise Q band-limit ringing unavoidable (~5% of
        # the jump at kmax=10), but the scattering content survives the round
        # trip to ~1e-4: compare in both spaces at their honest levels
        well = SquareWell(q0=-3.0, x0=0.0, length=1.0)
        data = sample_reflection(well, kmax=10.0, dk=1e-3, n_solve=240)
        x = np.arange(-2.5, 3.5 + 1e-9, 0.05)
        rec = recover_potential(data, x, ds=0.03, tail_tol=1e-5, check_decay=False)
        inside = (x > 0.35) & (x < 0.65)
        outside = (x < -0.35) | (x > 1.35)
        assert np.max(np.abs(rec.q[inside] + 3.0)) < 0.25
        assert np.max(np.abs(rec.q[outside])) < 0.25
        assert np.mean(rec.q[inside]) == pytest.approx(-3.0, abs=0.05)
        assert np.mean(rec.q[outside]) == pytest.approx(0.0, abs=0.05)
        tab = rec.to_potential()
        for k in (1.5, 2.5):
            got = solve_scattering(tab, k)
            ref = solve_scattering(well, k)
            assert abs(got.a - ref.a) < 1e-3
            assert abs(got.b - ref.b) < 1e-3

    def test_builder_data_gives_real_potential(self):
        t = np.sqrt(1.0 - 0.16)
        data = build_scattering_data([GateTarget(k=1.0, t=t, r=0.4)])
        x = np.arange(-6.0, 6.0 + 1e-9, 0.5)
        rec = recover_potential(data, x, ds=0.1, check_decay=False)
        assert np.isrealobj(rec.q)
        assert np.all(np.isfinite(rec.q))
        assert np.max(np.abs(rec.q)) < 1.0

    def test_node_validation(self):
        data = soliton_data([BoundState(1.0, 1.0)])
        with pytest.raises(ValueError, match="ascending"):
            recover_potential(data, np.array([0.0, -1.0, 1.0, 2.0]))

    def test_end_decay_invariant(self):
        x = np.linspace(-3.0, 3.0, 41)
        with pytest.raises(ValueError, match="decayed"):
            RecoveredPotential(x=x, q=np.cosh(x) ** -1)
        RecoveredPotential(x=x, q=np.cosh(x) ** -1, check_decay=False)

    def test_json_round_trip(self):
        rec = RecoveredPotential(
            x=np.linspace(0, 1, 5), q=np.arange(5.0), check_decay=False
        )
        back = from_json(Tabulated, rec.to_json())
        np.testing.assert_allclose(back.x, rec.x)
        np.testing.assert_allclose(back.q, rec.q)


def pole_data(poles=(1j,), norming=(-1j,)):
    zeta = np.linspace(-4.0, 4.0, 17)
    return TwoLevelScatteringData(
        zeta=zeta, r=np.zeros(17), poles=poles, norming=norming
    )


class TestTwoLevelTransmission:
    def test_blaschke_on_axis_and_above(self):
        data = pole_data()
        for zeta in (0.7, -1.3, 2j, 0.5 + 1.5j):
            expect = (zeta - 1j) / (zeta + 1j)
            assert transmission_a_two_level(data, zeta) == pytest.approx(
                expect, abs=1e-12
            )

    def test_derivative_at_pole(self):
        # a = (z - i)/(z + i) has a'(i) = 1/(2i)
        got = transmission_derivative_at_pole(pole_data(), 0)
        assert got == pytest.approx(1.0 / 2j, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        bumps=st.lists(
            st.tuples(
                st.floats(0.05, 0.3), st.floats(-3.0, 3.0), st.floats(0.2, 1.0),
                st.floats(-np.pi, np.pi),
            ),
            max_size=2,
        ),
        poles=st.lists(
            st.tuples(st.sampled_from(np.arange(-2.0, 2.5, 0.5)), st.sampled_from([0.5, 1.0, 1.5])),
            min_size=1, max_size=3, unique=True,
        ),
    )
    def test_slope_matches_a_centred_difference(self, bumps, poles):
        # zeros at least 0.5 apart and 0.5 above the axis keep the third
        # derivative of a small enough for a step of 1e-5
        zeta = np.arange(-8.0, 8.0 + 0.01, 0.01)
        ps = tuple(complex(*p) for p in poles)
        data = TwoLevelScatteringData(
            zeta=zeta, r=mirrored_reflection(zeta, bumps), poles=ps, norming=(1.0,) * len(ps)
        )
        step = 1e-5
        for j, p in enumerate(ps):
            want = (transmission_a_two_level(data, p + step)
                    - transmission_a_two_level(data, p - step)) / (2.0 * step)
            assert abs(transmission_derivative_at_pole(data, j) - want) <= 1e-8

    def test_axis_modulus_identity(self):
        zeta = np.arange(-6.0, 6.0 + 0.01, 0.01)
        r = 0.5 * np.exp(-(zeta**2)) * np.exp(0.3j * zeta)
        data = TwoLevelScatteringData(zeta=zeta, r=r, poles=(1j,), norming=(2.0,))
        for z0 in (0.0, 1.2, -0.4):
            a = transmission_a_two_level(data, z0)
            r0 = np.interp(z0, zeta, np.abs(r))
            assert abs(a) == pytest.approx(1.0 / np.sqrt(1.0 + r0**2), abs=5e-6)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(ValueError, match="upper half"):
            transmission_a_two_level(pole_data(), -1j)

    def test_data_validation(self):
        zeta = np.linspace(-4.0, 4.0, 9)
        with pytest.raises(ValueError, match="upper half"):
            TwoLevelScatteringData(zeta=zeta, r=np.zeros(9), poles=(-1j,), norming=(1.0,))
        with pytest.raises(ValueError, match="norming"):
            TwoLevelScatteringData(zeta=zeta, r=np.zeros(9), poles=(1j,), norming=())
        with pytest.raises(ValueError, match="decay"):
            TwoLevelScatteringData(zeta=zeta, r=np.full(9, 0.1))


class TestPulseRecovery:
    def test_one_soliton_pulse(self):
        # Gregory's end weights make the error fall like ds^6: 4.7e-7 at
        # ds 0.08 and 8.5e-9 at 0.04
        t = np.arange(-5.5, 5.5 + 1e-9, 0.1)
        expect = 2j / np.cosh(2.0 * t)
        err = [np.max(np.abs(recover_pulse(pole_data(), t, ds=ds).E - expect)) for ds in (0.08, 0.04)]
        assert err[1] < 2e-8
        assert err[0] >= 30.0 * err[1]

    def test_weak_reflection_born_limit(self):
        # for weak data E(t) ~ 2i F(2t) with F the Fourier transform of r;
        # the neglected correction is cubic in the data, hence the scale
        zeta = np.arange(-6.0, 6.0 + 0.01, 0.01)
        r = 0.02 * np.exp(-(zeta**2))
        data = TwoLevelScatteringData(zeta=zeta, r=r)
        t = np.arange(-2.5, 2.5 + 1e-9, 0.25)
        rec = recover_pulse(data, t, ds=0.05)
        born = 2j * 0.02 * np.exp(-(t**2)) / (2.0 * np.sqrt(np.pi))
        assert np.max(np.abs(rec.E - born)) < 3e-6
        assert np.max(np.abs(rec.E)) > 5e-3

    @pytest.mark.parametrize("ds", [0.0, np.nan, -0.04])
    def test_non_positive_step_refused_on_both_paths(self, ds):
        x = np.linspace(-1.0, 1.0, 5)
        message = f"^ds: {ds!r} is not positive$" if ds == ds else "^ds: nan is not a finite float$"
        with pytest.raises(ValueError, match=message):
            recover_potential(soliton_data([BoundState(1.0, 1.0)]), x, ds=ds)
        with pytest.raises(ValueError, match=message):
            recover_pulse(pole_data(), x, ds=ds)

    def test_tiny_step_refused_on_both_paths(self, gate_kernel, budget):
        # ds = 1e-6 asks each node for over 1e6 grid points (about 1.9e8 on
        # the gate kernel); the limit refuses it before the kernel is sampled
        x = np.linspace(-1.0, 1.0, 5)
        too_many = "ds = 1e-06 needs n = .* grid points, over the limit of 1048576"
        with pytest.raises(ValueError, match=too_many):
            recover_potential(soliton_data([BoundState(1.0, 1.0)]), x, ds=1e-6)
        with pytest.raises(ValueError, match=too_many):
            marchenko_diagonal(gate_kernel[1], 0.0, ds=1e-6)
        with pytest.raises(ValueError, match=too_many):
            recover_pulse(pole_data(), x, ds=1e-6)

    def test_json_round_trips(self):
        data = pole_data()
        back = from_json(TwoLevelScatteringData, data.to_json())
        np.testing.assert_allclose(back.zeta, data.zeta)
        np.testing.assert_allclose(back.r, data.r)
        assert back.poles == data.poles and back.norming == data.norming
        rec = RecoveredPulse(
            t=np.linspace(0, 1, 5), E=np.arange(5.0) * 1j, check_decay=False
        )
        again = from_json(TabulatedPulse, rec.to_json())
        np.testing.assert_allclose(again.E, rec.E)


# ---------------------------------------------------------------------------
# node solves against dense oracles, every node on Gregory's end weights: the
# potential's diagonal against dense reverse Cholesky factorizations and dense
# node solves, and the pulse's conjugate-gradient solves against the dense LU
# of the unsymmetrized system


def nystroem_reference(kernel, x, ds):
    """Samples c2 = C(2x + j ds) up to the kernel's end, Gregory weights w
    (gregory_weights below) and H_ij = c2[i + j], assembled by fancy
    indexing, independently of glm's Hankel view."""
    n = int(np.floor((kernel.z[-1] / 2.0 - x) / ds)) + 1
    c2 = kernel(2.0 * x + ds * np.arange(2 * n - 1))
    idx = np.arange(n)
    return c2, gregory_weights(ds, n), c2[np.add.outer(idx, idx)]


def scaled_reference(w, h):
    # S = D H D with D = diag(sqrt(w)), as a dense matrix
    d = np.sqrt(w)
    return d[:, None] * h * d


def node_count(kernel, ds):
    # the nodes s = z[0]/2 + j ds whose samples C(s + s') the kernel holds
    return int(np.floor((kernel.z[-1] - kernel.z[0]) / (2.0 * ds))) + 1


def flipped_sequence(kernel, w, n):
    """h with J G J = I + Hankel(h) for the matrix G = I + w Hankel(c) of the
    grid s = z[0]/2 + j w, c_m = C(z[0] + m w), and J the reversal: h = w c
    reversed."""
    return w * kernel(kernel.z[0] + w * np.arange(2 * n - 1))[::-1]


def identity_plus_hankel(h):
    n = (h.size + 1) // 2
    return np.eye(n) + hankel(h[:n], h[n - 1 :])


# Gregory's end weights (Fornberg, SIAM Rev. 63, 167 (2021)) of a node with
# q = 1 .. 5 grid points at or right of it; every further weight is 1
GREGORY = (
    (1 / 2,),
    (5 / 12, 13 / 12),
    (3 / 8, 7 / 6, 23 / 24),
    (251 / 720, 299 / 240, 211 / 240, 739 / 720),
    (95 / 288, 317 / 240, 23 / 30, 793 / 720, 157 / 160),
)
BAND = len(GREGORY[-1])


def gregory_weights(w, q):
    """The weights of a node with q grid points, s_i .. s_{i+q-1}."""
    weights = np.full(q, w)
    end = GREGORY[min(q, BAND) - 1]
    weights[: len(end)] *= end
    return weights


def dense_node(c, w, i, n):
    """Node i's Gregory-weighted system on its own, c_m = C(z[0] + m w): its
    solution u_b = K(s_i, s_{i+b}) starts with K(s_i, s_i)."""
    idx = np.arange(i, n)
    h = c[np.add.outer(idx, idx)]
    return np.linalg.solve(np.eye(n - i) + h * gregory_weights(w, n - i), -c[2 * i : i + n])[0]


def cholesky_nodes(kernel, w, n):
    """Every node's K(s_i, s_i) from the dense reverse Cholesky factor U of
    G = U U^T: node i's Gregory system, reduced by the block
    V = U[i:i+r, i:i+r] to (I + M Omega) u = -M e_0 / w, where
    M = V V^T - I = E + E^T + E E^T, E = V - I, keeps its difference from I."""
    lower = np.linalg.cholesky(identity_plus_hankel(flipped_sequence(kernel, w, n)))
    u = np.eye(n + BAND - 1)
    u[:n, :n] = lower[::-1, ::-1]
    out = np.empty(n)
    for i in range(n):
        e = u[i : i + BAND, i : i + BAND] - np.eye(BAND)
        m = e + e.T + e @ e.T
        omega = np.ones(BAND)
        omega[: min(n - i, BAND)] = gregory_weights(1.0, min(n - i, BAND))
        out[i] = np.linalg.solve(np.eye(BAND) + m * omega, -m[:, 0] / w)[0]
    return out


def cholesky_table(kernel, ds):
    """The nodes of the one grid at ds, factored densely, and the quintic
    spline."""
    n = node_count(kernel, ds)
    return SampleTable(kernel.z[0] / 2.0 + ds * np.arange(n), cholesky_nodes(kernel, ds, n))


def assert_matches_cholesky(kernel, xs, ds):
    table = cholesky_table(kernel, ds)
    for x in xs:
        want, got = table(x), marchenko_diagonal(kernel, x, ds)
        assert abs(got - want) <= 1e-10 * abs(want), (x, got, want)


def grid_spectra_minimum(kernel, ds):
    # the lowest eigenvalue of the matrix I + ds Hankel(c) of the grid at ds
    n = node_count(kernel, ds)
    return np.linalg.eigvalsh(identity_plus_hankel(flipped_sequence(kernel, ds, n)))[0]


@pytest.fixture(scope="module")
def gate_kernel():
    # the kernel recover_potential builds for the gate pipeline (shipped
    # Hadamard-like targets, the gate CLI window, ds = 0.15), captured
    # where it is handed to the node solves
    s2 = 1.0 / np.sqrt(2.0)
    data = build_scattering_data([GateTarget(k=1.0, t=s2, r=s2), GateTarget(k=2.0, t=s2, r=s2)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glm, "solve_marchenko", lambda kernel, *args, **kwargs: kernel)
        kernel = recover_potential(data, np.linspace(-55.0, 46.0, 506), ds=0.15)
    return data, kernel


class TestCholeskySolve:
    """Node solves against dense factorizations, and the spectrum they rely on."""

    def test_gate_kernel_matches_lu(self, gate_kernel):
        # -55.01 is the first node's left difference point; every node reads
        # the table of the one grid at ds; at 46.01 |K| is about 5e-4
        _, kernel = gate_kernel
        assert node_count(kernel, 0.15) == 1242
        assert_matches_cholesky(kernel, (-55.01, -54.99, -20.0, 10.0, 46.01), 0.15)

    def test_gate_spectrum_is_positive(self, gate_kernel):
        _, kernel = gate_kernel
        h = flipped_sequence(kernel, 0.15, node_count(kernel, 0.15))
        ev = np.linalg.eigvalsh(identity_plus_hankel(h))
        assert 0.3 < ev[0] and ev[-1] < 1.7

    @pytest.mark.parametrize("i", [0, 1, 57, 275])
    def test_reverse_cholesky_pivots_give_the_node_solves(self, i):
        # node i's Gregory system on its own against the oracle's reduction
        # of it through the dense reverse Cholesky factor
        kernel = marchenko_kernel(soliton_data([BoundState(1.0, 1.0)]), np.arange(-8.0, 20.0, 0.02))
        w, n = 0.02, node_count(kernel, 0.02)
        c = kernel(kernel.z[0] + w * np.arange(2 * n - 1))
        want = dense_node(c, w, i, n)
        got = cholesky_nodes(kernel, w, n)[i]
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_extended_gate_kernel_equals_one_shot_build(self, gate_kernel):
        data, kernel = gate_kernel
        assert np.array_equal(kernel.refl, marchenko_kernel(data, kernel.z).refl)

    # two-soliton nodes stop at x = -2: further left the condition number of
    # the node's system grows as e^{4 |x|} (3.6e6 at x = -3.5), and there two
    # factorizations differ by their shared cond * eps roundoff
    @pytest.mark.parametrize("x", [-2.0, -1.0, 0.0, 0.4, 3.0])
    @pytest.mark.parametrize(
        "states",
        [[BoundState(1.0, 1.0)], [BoundState(1.0, -1.0), BoundState(2.0, 1.0)]],
        ids=["one", "two"],
    )
    def test_soliton_kernels_match_lu(self, states, x):
        kernel = marchenko_kernel(soliton_data(states), np.arange(-8.0, 20.0, 0.02))
        assert_matches_cholesky(kernel, (x,), 0.02)

    @pytest.mark.parametrize("t", [-1.5, 0.0, 0.7])
    def test_pulse_sample_matches_lu(self, t):
        z = np.arange(-4.0, 14.0, 0.01)
        refl = 0.3 * np.exp(-((z - 1.0) ** 2)) * np.exp(0.7j * z)
        kernel = MarchenkoKernel(z=z, refl=refl, bound_terms=((1.0 - 0.5j, 0.8 + 0.3j),))
        c2, w, h = nystroem_reference(kernel, t, 0.04)
        m = h * w
        want = -2j * np.linalg.solve(np.eye(w.size) + m @ np.conj(m), -c2[: w.size])[0]
        got = glm._pulse_sample(kernel, t, 0.04)
        assert abs(got - want) <= 1e-10 * abs(want)

    @settings(max_examples=25, deadline=None)
    @given(
        bumps=st.lists(
            st.tuples(
                st.floats(0.05, 0.2), st.floats(0.0, 3.0), st.floats(0.2, 1.0),
                st.floats(-np.pi, np.pi),
            ),
            max_size=2,
        ),
        states=st.lists(
            st.tuples(st.floats(0.3, 2.0), st.floats(0.2, 5.0)), max_size=2,
            unique_by=lambda s: round(s[0], 1),
        ),
        x=st.floats(-1.0, 1.0),
    )
    def test_physical_data_are_positive_definite(self, bumps, states, x):
        # |R| <= 0.8 from at most two mirrored bumps (R(-k) = conj R(k)) and
        # norming signs chosen so that every kernel weight g_j is positive
        k = np.arange(-8.0, 8.0 + 0.01, 0.01)
        R = mirrored_reflection(k, bumps)
        bound = [BoundState(eta, b) for eta, b in states]
        signs = np.sign(bound_state_weights(ReflectionData(k=k, R=R, bound_states=tuple(bound))))
        bound = tuple(BoundState(s.eta, sign * s.norming) for s, sign in zip(bound, signs))
        data = ReflectionData(k=k, R=R, bound_states=bound)
        assert all(g > 0 for g in bound_state_weights(data))
        kernel = marchenko_kernel(data, np.arange(-2.5, 12.0, 0.02))
        assert grid_spectra_minimum(kernel, 0.05) > 0
        # K(x, x) can pass through zero, so the error is relative to the
        # larger of K(x, x) and the kernel itself
        want = cholesky_table(kernel, 0.05)(x)
        got = marchenko_diagonal(kernel, x, 0.05)
        assert abs(got - want) <= 1e-10 * max(abs(want), np.max(np.abs(kernel(kernel.z[kernel.z >= 2.0 * x]))))


def random_kernel(n, dtype, seed):
    # random samples on a grid whose truncation gives Nystroem order n at
    # x = 0, ds = 0.1 (half a step of margin below the next order)
    rng = np.random.default_rng(seed)
    z = np.linspace(-1.0, 0.2 * (n - 1) + 0.1, 4 * n)
    refl = rng.standard_normal(z.size)
    if dtype is complex:
        refl = refl + 1j * rng.standard_normal(z.size)
    return MarchenkoKernel(z=z, refl=refl), rng


class TestConjugateGradientSolve:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [5, 157, 1241])
    def test_fft_hankel_matches_indexed_matrix(self, n, dtype):
        kernel, rng = random_kernel(n, dtype, n)
        c2, w, h = nystroem_reference(kernel, 0.0, 0.1)
        assert w.size == n and np.iscomplexobj(c2) == (dtype is complex)
        v = rng.standard_normal(n).astype(dtype)
        if dtype is complex:
            v += 1j * rng.standard_normal(n)
        for d, matrix in ((np.ones(n), h), (np.sqrt(w), scaled_reference(w, h))):
            want = matrix @ v
            got = glm._fft_hankel(c2, d)(v)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @settings(max_examples=25, deadline=None)
    @given(
        bumps=st.lists(
            st.tuples(
                st.floats(0.05, 0.4), st.floats(-1.0, 3.0), st.floats(0.3, 1.5),
                st.floats(-2.0, 2.0), st.floats(-np.pi, np.pi),
            ),
            min_size=1, max_size=3,
        ),
        pole=st.tuples(st.floats(-2.0, 2.0), st.floats(0.3, 1.5)),
        norming=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        t=st.floats(-1.0, 1.0),
    )
    def test_pulse_sample_matches_lu_on_random_data(self, bumps, pole, norming, t):
        # complex Gaussian bumps exp(i nu z) plus the term m e^{i zeta z} of
        # one transmission zero zeta in the upper half plane
        z = np.arange(-3.0, 10.0, 0.02)
        refl = sum(
            amp * np.exp(-(((z - z0) / width) ** 2) + 1j * (nu * z + phase))
            for amp, z0, width, nu, phase in bumps
        )
        zeta = complex(*pole)
        kernel = MarchenkoKernel(z=z, refl=refl, bound_terms=((-1j * zeta, complex(*norming)),))
        c2, w, h = nystroem_reference(kernel, t, 0.05)
        m = h * w
        want = -2j * np.linalg.solve(np.eye(w.size) + m @ np.conj(m), -c2[: w.size])[0]
        got = glm._pulse_sample(kernel, t, 0.05)
        assert abs(got - want) <= 1e-10 * max(abs(want), np.max(np.abs(c2)))

    @settings(max_examples=25, deadline=None)
    @given(
        bumps=st.lists(
            st.tuples(
                st.floats(0.05, 0.2), st.floats(0.0, 3.0), st.floats(0.2, 1.0),
                st.floats(-np.pi, np.pi),
            ),
            max_size=2,
        ),
        states=st.lists(
            st.tuples(st.floats(0.3, 2.0), st.floats(0.2, 5.0), st.sampled_from([-1.0, 1.0])),
            min_size=1, max_size=2, unique_by=lambda s: round(s[0], 1),
        ),
        x=st.floats(-1.0, 1.0),
    )
    def test_indefinite_data_raise(self, bumps, states, x):
        # bound states of either sign: wherever the dense spectrum of the
        # grid's matrix I + ds Hankel(c) has a negative eigenvalue the solve
        # must refuse the data
        k = np.arange(-8.0, 8.0 + 0.01, 0.01)
        R = mirrored_reflection(k, bumps)
        bound = tuple(BoundState(eta, sign * b) for eta, b, sign in states)
        data = ReflectionData(k=k, R=R, bound_states=bound)
        kernel = marchenko_kernel(data, np.arange(-2.5, 12.0, 0.02))
        assume(grid_spectra_minimum(kernel, 0.05) < 0)
        with pytest.raises(NumericalError):
            marchenko_diagonal(kernel, x, 0.05)

    def test_unconverged_solve_raises(self):
        # the 12 x 12 Hilbert matrix is positive definite, but its condition
        # number (1.6e16) keeps CG from converging in 12 iterations
        h = hilbert(12)
        with pytest.raises(NumericalError, match="did not converge in 12 CG iterations"):
            glm._cg_solve(lambda y: h @ y, np.ones(12))

    def test_inaccurate_solve_raises(self, monkeypatch):
        # the one-soliton kernel gives K(0, 0) = -1.  A generator row
        # v_1 = (h_m .. h_{2m-2}) off by 10% makes the recursion factor
        # another matrix, which the conjugate-gradient solve of the grid's
        # first node sees
        data, grid = soliton_data([BoundState(1.0, 1.0)]), np.arange(-8.0, 20.0, 0.02)
        assert marchenko_diagonal(marchenko_kernel(data, grid), 0.0, 0.02) == pytest.approx(-1.0, abs=1e-8)
        band = glm._schur_band

        def corrupted(h):
            m = (h.size + 1) // 2
            return band(np.r_[h[:m], 1.1 * h[m:]])

        monkeypatch.setattr(glm, "_schur_band", corrupted)
        with pytest.raises(NumericalError, match="Nystroem solve lost accuracy"):
            marchenko_diagonal(marchenko_kernel(data, grid), 0.0, 0.02)

    def test_inaccurate_pulse_solve_raises(self, monkeypatch):
        # a Hankel product at half its size leaves a residual that the check
        # on the unscaled pulse system sees
        z = np.arange(-4.0, 14.0, 0.01)
        refl = 0.3 * np.exp(-((z - 1.0) ** 2)) * np.exp(0.7j * z)
        kernel = MarchenkoKernel(z=z, refl=refl, bound_terms=((1.0 - 0.5j, 0.8 + 0.3j),))
        glm._pulse_sample(kernel, 0.0, 0.04)
        product = glm._fft_hankel
        monkeypatch.setattr(glm, "_fft_hankel", lambda c2, d: lambda y: 0.5 * product(c2, d)(y))
        with pytest.raises(NumericalError, match="Nystroem solve lost accuracy"):
            glm._pulse_sample(kernel, 0.0, 0.04)

    def test_ill_conditioned_window_raises(self):
        # the two-soliton kernel grows like e^{4|x|} to the left; from
        # x = -5.5 the factorization holds the first node to only 1e-5
        # relative, which would leave Q off by 1.5e-2 there: refused
        data = soliton_data([BoundState(1.0, -1.0), BoundState(2.0, 1.0)])
        with pytest.raises(NumericalError, match="Nystroem solve lost accuracy"):
            recover_potential(data, np.arange(-5.5, 3.5 + 1e-9, 0.25), ds=0.02, check_decay=False)

    def test_nodes_off_the_table_raise(self):
        kernel = marchenko_kernel(soliton_data([BoundState(1.0, 1.0)]), np.arange(-2.0, 20.0, 0.02))
        # the table starts at z[0]/2 = -1 and reads 0 to its left
        assert marchenko_diagonal(kernel, -1.0, 0.1) == pytest.approx(-2.0 / (1.0 + np.exp(-2.0)), abs=1e-5)
        with pytest.raises(ValueError, match="kernel tabulated for z >= -2"):
            marchenko_diagonal(kernel, -1.0 - 1e-9, 0.1)
        edge = kernel.z[-1] / 2.0
        assert np.isfinite(marchenko_diagonal(kernel, edge - 0.401, 0.1))
        with pytest.raises(ValueError, match="too close to the kernel truncation edge"):
            marchenko_diagonal(kernel, edge - 0.399, 0.1)

    def test_complex_kernel_refused(self):
        z = np.arange(-2.0, 10.0, 0.05)
        kernel = MarchenkoKernel(z=z, refl=0.1 * np.exp(-(z**2)) * np.exp(1j * z))
        with pytest.raises(ValueError, match="real .* kernel.*recover_pulse"):
            marchenko_diagonal(kernel, 0.0, 0.1)

    def test_zero_kernel_gives_zero(self):
        kernel = MarchenkoKernel(z=np.arange(-2.0, 10.0, 0.05), refl=np.zeros(240))
        assert marchenko_diagonal(kernel, 0.0, 0.1) == 0.0


class TestSchurRecursion:
    """The O(m)-memory Schur band of I + Hankel(h): its first column, the
    pivots less one, and the rest against dense Cholesky."""

    @settings(max_examples=50, deadline=None)
    @given(
        m=st.integers(2, 200), amp=st.floats(0.01, 2.0), rate=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pivots_match_dense_cholesky(self, m, amp, rate, seed):
        # random entries of a decaying envelope amp e^{-rate j}
        j = np.arange(2 * m - 1)
        h = amp * np.random.default_rng(seed).uniform(-1.0, 1.0, j.size) * np.exp(-rate * j)
        a = identity_plus_hankel(h)
        assume(np.linalg.eigvalsh(a)[0] > 0)
        want = np.diag(np.linalg.cholesky(a)) ** 2
        assert np.max(np.abs(1.0 + glm._schur_band(h)[:, 0] - want) / want) <= 1e-12

    def test_gate_system_pivots(self, gate_kernel):
        # the first 1241 nodes of the gate kernel's grid at ds 0.15
        _, kernel = gate_kernel
        h = flipped_sequence(kernel, 0.15, 1241)
        want = np.diag(np.linalg.cholesky(identity_plus_hankel(h))) ** 2
        assert np.max(np.abs(1.0 + glm._schur_band(h)[:, 0] - want) / want) <= 1e-12

    @pytest.mark.parametrize("h", [[0.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, np.nan, 0.0], [np.inf, 0.0, 0.0]])
    def test_non_positive_or_non_finite_pivot_raises(self, h):
        # [[1, 2], [2, 1]] has pivots 1 and -3; [[-1, 0], [0, 1]] starts with -1
        with pytest.raises(NumericalError, match="not positive definite"):
            glm._schur_band(np.array(h))

    @settings(max_examples=50, deadline=None)
    @given(
        m=st.integers(2, 200), amp=st.floats(0.01, 2.0), rate=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_band_matches_dense_cholesky(self, m, amp, rate, seed):
        # row j past its first entry holds L[j + e, j] L_jj, A = L L^T
        j = np.arange(2 * m - 1)
        h = amp * np.random.default_rng(seed).uniform(-1.0, 1.0, j.size) * np.exp(-rate * j)
        a = identity_plus_hankel(h)
        assume(np.linalg.eigvalsh(a)[0] > 0)
        lower = np.linalg.cholesky(a)
        scaled = np.vstack([lower * np.diag(lower), np.zeros((BAND, m))])
        want = np.array([scaled[i : i + BAND, i] for i in range(m)])
        got = glm._schur_band(h)
        assert np.max(np.abs(got[:, 1:] - want[:, 1:])) <= 1e-12 * np.max(np.abs(want[:, 1:]), initial=1.0)


class TestGregoryDiagonal:
    """Every node from the one recursion's band, against dense node solves,
    and the order of Gregory's end correction."""

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(8, 200), amp=st.floats(0.01, 2.0), rate=st.floats(0.05, 1.0),
        ds=st.floats(0.02, 0.5), seed=st.integers(0, 2**32 - 1),
    )
    def test_nodes_match_dense_gregory_solves(self, m, amp, rate, ds, seed):
        # decaying random samples c_m = C(z_0 + m ds) whose grid matrix
        # I + ds Hankel(c), and the first node's weighted system, are
        # positive definite
        j = np.arange(2 * m - 1)
        c = amp * np.random.default_rng(seed).uniform(-1.0, 1.0, j.size) * np.exp(-rate * j * ds)
        h = c[np.add.outer(np.arange(m), np.arange(m))]
        assume(np.linalg.eigvalsh(np.eye(m) + ds * h)[0] > 0)
        root = np.sqrt(gregory_weights(ds, m))
        assume(np.linalg.eigvalsh(np.eye(m) + root[:, None] * h * root)[0] > 0)
        got = glm._gregory_diagonal(c, ds)
        want = np.array([dense_node(c, ds, i, m) for i in range(m)])
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), np.max(np.abs(c))))

    def test_one_soliton_diagonal_is_sixth_order(self):
        # K(x, x) = -2/(1 + e^{2x}); the grid reaches z = 30, so that the
        # truncated tail (about e^{-30}) stays below the quadrature error
        kernel = marchenko_kernel(soliton_data([BoundState(1.0, 1.0)]), np.arange(-8.0, 30.0, 0.02))
        x = np.linspace(-2.0, 2.0, 81)
        want = -2.0 / (1.0 + np.exp(2.0 * x))
        err = [max(abs(marchenko_diagonal(kernel, xi, ds) - wi) for xi, wi in zip(x, want)) for ds in (0.05, 0.025)]
        assert err[0] <= 5e-8
        assert err[0] >= 30.0 * err[1]

    def test_nodes_near_the_edge_take_reduced_orders(self):
        # a slowly decaying kernel leaves K well above rounding at the edge;
        # node i with q = n - i < 5 points takes Gregory's row q - 1, and the
        # last readable x, 4 ds left of the edge, reads them through the spline
        z = np.arange(-2.0, 10.0, 0.02)
        kernel = MarchenkoKernel(z=z, refl=0.2 * np.exp(-0.1 * z) * np.cos(z))
        ds = 0.1
        n = node_count(kernel, ds)
        c = kernel(kernel.z[0] + ds * np.arange(2 * n - 1))
        got = glm._gregory_diagonal(c, ds)
        for i in range(n - BAND - 1, n):
            want = dense_node(c, ds, i, n)
            assert abs(got[i] - want) <= 1e-12 * abs(want), i
        edge = kernel.z[-1] / 2.0
        assert_matches_cholesky(kernel, (edge - 4.0 * ds, edge - 4.5 * ds, edge - 5.0 * ds), ds)


NEGATIVE_NORMING = soliton_data([BoundState(1.0, -1.0)])


class TestNonPhysicalData:
    def test_negative_norming_raises(self):
        with pytest.raises(NumericalError, match="not positive definite"):
            recover_potential(NEGATIVE_NORMING, np.linspace(-3.0, 3.0, 5), check_decay=False)

    def test_cli_inverse_exits_3(self, tmp_path, capsys):
        path = tmp_path / "data.json"
        path.write_text(json.dumps(NEGATIVE_NORMING.to_json()))
        argv = ["inverse", "--data", str(path), "--kmin", "-3", "--kmax", "3", "--n", "5", "--keep-ends"]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert "not physical scattering data" in json.loads(line)["error"]["message"]

    def test_slowly_decaying_kernel_raises(self, budget):
        # a reflection step at |k| = 2 gives a kernel that decays like 1/z
        k = np.linspace(-5.0, 5.0, 2001)
        data = ReflectionData(k=k, R=np.where(np.abs(k) < 2.0, 0.3, 0.0) + 0j)
        with pytest.raises(NumericalError, match="kernel tail still .* after extension"):
            recover_potential(data, np.linspace(-1.0, 1.0, 5))


def spy_fourier_rows(mp):
    """Record the z grid of every _fourier_rows call."""
    grids, rows = [], glm._fourier_rows

    def spy(k, values, z):
        grids.append(z)
        return rows(k, values, z)

    mp.setattr(glm, "_fourier_rows", spy)
    return grids


class TestKernelTabulation:
    """Each trial pad forms only its end rows; the kernel is formed once."""

    def test_gate_kernel_forms_its_grid_once(self):
        s2 = 1.0 / np.sqrt(2.0)
        data = build_scattering_data([GateTarget(k=1.0, t=s2, r=s2), GateTarget(k=2.0, t=s2, r=s2)])
        with pytest.MonkeyPatch.context() as mp:
            grids = spy_fourier_rows(mp)
            mp.setattr(glm, "solve_marchenko", lambda kernel, *args, **kwargs: kernel)
            kernel = recover_potential(data, np.linspace(-55.0, 46.0, 506), ds=0.15)
        *trials, last = grids
        assert np.array_equal(last, kernel.z) and len(trials) == 6
        dz = kernel.z[1] - kernel.z[0]
        assert all(z.size <= 2.0 / dz + 1 for z in trials)

    def test_extended_pulse_kernel_equals_one_shot_rows(self):
        # a narrow r decays slowly in z: the first pad fails, the second passes
        zeta = np.arange(-6.0, 6.0 + 0.01, 0.01)
        r = 0.02 * np.exp(-((zeta / 0.3) ** 2)) * np.exp(0.7j * zeta)
        data = TwoLevelScatteringData(zeta=zeta, r=r, poles=(1j,), norming=(-1j,))
        kernels = []
        with pytest.MonkeyPatch.context() as mp:
            grids = spy_fourier_rows(mp)
            mp.setattr(glm, "_pulse_sample", lambda kernel, t, ds: kernels.append(kernel) or 0j)
            recover_pulse(data, np.linspace(-1.0, 1.0, 5))
        assert len(grids) == 3
        kernel = kernels[0]
        assert np.array_equal(kernel.refl, glm._fourier_rows(zeta, r, kernel.z))

    @pytest.mark.parametrize("ds, tail_tol, name", [
        (0.0, 1e-8, "ds"), (np.nan, 1e-8, "ds"), (np.inf, 1e-8, "ds"),
        (0.15, 0.0, "tail_tol"), (0.15, -1e-8, "tail_tol"), (0.15, np.nan, "tail_tol")])
    def test_bad_step_or_tolerance_forms_no_kernel_row(self, ds, tail_tol, name, gate_kernel):
        # the arguments are checked before the kernel is tabulated (10 738 rows of
        # the gate data, or the pulse kernel's)
        x = np.linspace(-1.0, 1.0, 5)
        with pytest.MonkeyPatch.context() as mp:
            grids = spy_fourier_rows(mp)
            with pytest.raises(ValueError, match=f"^{name}: "):
                recover_potential(gate_kernel[0], x, ds=ds, tail_tol=tail_tol)
            with pytest.raises(ValueError, match=f"^{name}: "):
                recover_pulse(pole_data(), x, ds=ds, tail_tol=tail_tol)
        assert grids == []

    def test_non_symmetric_reflection_is_refused(self, budget):
        # R(-k) != conj(R(k)): the end rows decay, so the full grid refuses it
        k = np.linspace(-5.0, 5.0, 1001)
        data = ReflectionData(k=k, R=0.3 * np.exp(-((k - 1.0) ** 2)) + 0j)
        with pytest.raises(NumericalError, match="kernel came out complex"):
            recover_potential(data, np.linspace(-1.0, 1.0, 5))

    def test_slowly_decaying_complex_kernel_is_refused_at_the_first_trial(self, budget):
        # a one-sided step decays like 1/z: its end rows are already complex
        k = np.linspace(-5.0, 5.0, 2001)
        data = ReflectionData(k=k, R=np.where((k > 0.0) & (k < 2.0), 0.3, 0.0) + 0j)
        with pytest.MonkeyPatch.context() as mp:
            grids = spy_fourier_rows(mp)
            with pytest.raises(NumericalError, match="kernel came out complex"):
                recover_potential(data, np.linspace(-1.0, 1.0, 5))
        assert len(grids) == 1


def fourier_error(k, values, z):
    """Largest error of _fourier_rows on 31 rows spread over z, against a
    long-double sum, relative to sum |w values| / 2 pi."""
    rows = np.linspace(0, z.size - 1, 31).astype(int)
    got = glm._fourier_rows(k, values, z)[rows]
    wv = glm._trapezoid_weights(k) * values
    exact = np.exp(1j * np.outer(z[rows].astype(np.longdouble), k.astype(np.longdouble)))
    want = exact @ wv.astype(np.clongdouble) / (2.0 * np.pi)
    return float(np.max(np.abs(got - want)) / (np.sum(np.abs(wv)) / (2.0 * np.pi)))


class TestFourierRows:
    """Each kernel row is the last one times the phase step e^{ik dz}: its
    rounding grows with the row count, but slowly."""

    def test_gate_kernel_grid(self, gate_kernel):
        data, kernel = gate_kernel
        assert kernel.z.size > 10_000
        assert fourier_error(data.k, data.R, kernel.z) <= 1e-13

    def test_long_grid(self, gate_kernel):
        # a step from z[1] - z[0] would carry the rounding of z[0] into
        # every row: 3.2e-10 here
        data, _ = gate_kernel
        z = np.arange(200_000) * 0.0357 - 110.02
        assert fourier_error(data.k, data.R, z) <= 1e-11

    def test_non_uniform_momenta(self):
        rng = np.random.default_rng(0)
        k = np.sort(rng.uniform(-5.0, 5.0, 800))
        values = 0.3 * np.exp(-(k**2) + 0.4j * k)
        z = -20.0 + np.arange(6809) * (40.0 / 6809)
        assert fourier_error(k, values, z) <= 1e-13
