import json
import warnings

import numpy as np
import pytest
from conftest import dop853_scattering, envelope_rhs
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from scattergate import direct1d
from scattergate._magnus import transfer_matrix
from scattergate.cli import main
from scattergate.codec import from_json
from scattergate.direct1d import (
    BoundState,
    LorentzianSum,
    PotentialSpec,
    SechSquared,
    SquareWell,
    Tabulated,
    Zero,
    em_spin_smatrix,
    fields_from_potentials,
    find_bound_states,
    momentum_grid,
    solve_grid,
    solve_scattering,
)
from scattergate.dispersion import sample_reflection
from scattergate.errors import NumericalError
from scattergate.twolevel import TabulatedPulse


def sech_samples(x, depth, center, width):
    """depth sech^2((x - center)/width) through decaying exponentials only."""
    e = np.exp(-2.0 * np.abs(x - center) / width)
    return depth * 4.0 * e / (1.0 + e) ** 2


def square_well_pair(q0, length, k):
    """Closed-form (a, b) for Q = q0 on [0, length] by plane-wave matching."""
    kap = np.sqrt(complex(k * k + q0))
    A = (kap + k) / (2.0 * kap)
    B = (kap - k) / (2.0 * kap)
    L = length
    a = np.exp(1j * k * L) * ((k + kap) * A * np.exp(-1j * kap * L)
                              + (k - kap) * B * np.exp(1j * kap * L)) / (2.0 * k)
    b = np.exp(-1j * k * L) * ((k - kap) * A * np.exp(-1j * kap * L)
                               + (k + kap) * B * np.exp(1j * kap * L)) / (2.0 * k)
    return a, b


class TestSolveScattering:
    def test_free_particle(self):
        c = solve_scattering(Zero(), 1.7)
        assert c.a == pytest.approx(1.0)
        assert c.b == pytest.approx(0.0)
        np.testing.assert_allclose(c.smatrix, [[0, 1], [1, 0]], atol=1e-12)

    def test_square_well_matches_closed_form(self):
        well = SquareWell(q0=-3.0, x0=0.0, length=1.0)
        for k in np.linspace(0.5, 5.0, 10):
            c = solve_scattering(well, k)
            a, b = square_well_pair(-3.0, 1.0, k)
            assert c.a == pytest.approx(a, abs=1e-8)
            assert c.b == pytest.approx(b, abs=1e-8)

    def test_square_well_transmission_at_k2(self):
        # barrier k^2 - 3 inside, kappa = 1 at k = 2
        c = solve_scattering(SquareWell(q0=-3.0, x0=0.0, length=1.0), 2.0)
        assert abs(c.transmission) ** 2 == pytest.approx(0.7151586, abs=2e-6)

    def test_sech_squared_reflectionless(self):
        pot = SechSquared(eta=1.0)
        for k in np.linspace(0.5, 5.0, 8):
            c = solve_scattering(pot, k)
            assert abs(c.reflection) < 1e-8
            assert c.a == pytest.approx((k - 1j) / (k + 1j), abs=1e-8)
        c1 = solve_scattering(pot, 1.0)
        assert c1.transmission == pytest.approx(1j, abs=1e-8)

    def test_sech_squared_off_center(self):
        # recentering multiplies b by a phase but leaves a alone
        c = solve_scattering(SechSquared(eta=2.0, center=3.0), 1.3)
        assert c.a == pytest.approx((1.3 - 2j) / (1.3 + 2j), abs=1e-8)
        assert abs(c.b) < 1e-8

    def test_tabulated_matches_analytic(self):
        x = np.linspace(-18.0, 18.0, 1401)
        tab = Tabulated(x=x, q=2.0 / np.cosh(x) ** 2)
        ana = SechSquared(eta=1.0)
        for k in (0.7, 1.0, 2.5):
            ct = solve_scattering(tab, k)
            ca = solve_scattering(ana, k)
            assert ct.a == pytest.approx(ca.a, abs=1e-6)
            assert abs(ct.b - ca.b) < 1e-6

    def test_su11_and_unitarity_across_potentials(self):
        pots = [
            SquareWell(q0=-3.0, x0=0.0, length=1.0),
            SquareWell(q0=2.0, x0=-0.5, length=2.0),
            SechSquared(eta=1.5, center=0.3),
        ]
        for pot in pots:
            for c in solve_grid(pot, momentum_grid(0.4, 4.0, 16)):
                assert abs(abs(c.a) ** 2 - abs(c.b) ** 2 - 1.0) < 1e-8
                s = c.smatrix
                np.testing.assert_allclose(s.conj().T @ s, np.eye(2), atol=1e-8)

    def test_lorentzian_sum_su11(self):
        pot = LorentzianSum(pairs=((1.0, 0.02),))
        for k in (1.0, 2.0):
            c = solve_scattering(pot, k)
            assert abs(abs(c.a) ** 2 - abs(c.b) ** 2 - 1.0) < 1e-8

    @pytest.mark.parametrize("k", [0.5, 2.0])
    def test_long_tails_keep_the_flux(self, k):
        # the 1/x^2 tails beyond the core are exact SU(1, 1) factors, so no
        # long run of nearly equal steps can add up a det - 1
        c = solve_scattering(LorentzianSum(pairs=((1.0, 0.3), (0.2, -0.1))), k)
        assert abs(abs(c.a) ** 2 - abs(c.b) ** 2 - 1.0) <= 1e-12

    def test_conjugation_symmetry(self):
        # launching e^{+ikx} instead propagates the conjugate solution
        pot = SquareWell(q0=-3.0, x0=0.0, length=1.0)
        k = 1.3
        sol = solve_ivp(
            envelope_rhs(pot, k),
            pot.window,
            np.array([1.0 + 0.0j, 0.0j]),
            method="DOP853",
            rtol=1e-10,
            atol=1e-12,
        )
        c = solve_scattering(pot, k)
        assert complex(sol.y[0, -1]) == pytest.approx(np.conj(c.a), abs=1e-8)
        assert complex(sol.y[1, -1]) == pytest.approx(np.conj(c.b), abs=1e-8)

    def test_tolerance_refinement(self):
        pot = SechSquared(eta=1.0)
        for k in (0.6, 1.9):
            c1 = solve_scattering(pot, k, rtol=1e-10)
            c2 = solve_scattering(pot, k, rtol=5e-11)
            assert abs(c1.a - c2.a) < 1e-7
            assert abs(c1.b - c2.b) < 1e-7

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            solve_scattering(Zero(), 0.0)
        with pytest.raises(ValueError):
            solve_scattering(Zero(), -1.0)


class TestFailurePaths:
    def test_infinite_window_is_refused(self, tmp_path, capsys, budget):
        # a window that overflows is refused at build, so no document writes
        # Infinity: 40 / eta, x0 + length, and mass / 1e-10 for a Lorentzian
        cases = [
            (lambda: SechSquared(eta=5e-324), {"variant": "sech_squared", "eta": 5e-324}, "-inf"),
            (lambda: SquareWell(1.0, 1e308, 1e308),
             {"variant": "square_well", "q0": 1.0, "x0": 1e308, "length": 1e308}, "inf"),
            (lambda: LorentzianSum(((1e300, 1e300),)),
             {"variant": "lorentzian_sum", "pairs": [[1e300, 1e300]]}, "-inf"),
            (lambda: LorentzianSum(((1.0, 1e300),)),
             {"variant": "lorentzian_sum", "pairs": [[1.0, 1e300]]}, "-inf"),
        ]
        path = tmp_path / "pot.json"
        for build, doc, edge in cases:
            message = f"window: {edge} is not a finite float"
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()
            with pytest.raises(ValueError, match=f"^{message}$"):
                from_json(PotentialSpec, doc)
            path.write_text(json.dumps(doc))
            assert main(["direct", "--potential", str(path), "--n", "1"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and len(err.splitlines()) == 1
            assert json.loads(err)["error"]["message"] == f"ValueError: {message}"

    def test_overflowing_propagator_raises_without_warnings(self, budget):
        # a barrier of height 1e4 and length 10 grows the evanescent
        # solution by e^1000, past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="the propagator overflowed"):
                solve_scattering(SquareWell(q0=-1e4, x0=0.0, length=10.0), 1.0)


class TestMagnusAgainstOracle:
    """The Magnus propagator against DOP853 on the plane-wave envelope."""

    @settings(max_examples=25, deadline=None)
    @given(
        pot=st.one_of(
            st.builds(SechSquared, eta=st.floats(0.5, 2.0), center=st.floats(-2.0, 2.0)),
            st.builds(SquareWell, q0=st.floats(-4.0, 4.0), x0=st.floats(-2.0, 2.0),
                      length=st.floats(0.1, 3.0)),
        ),
        k=st.floats(0.2, 8.0),
    )
    def test_matches_dop853(self, pot, k):
        c = solve_scattering(pot, k)
        a, b = dop853_scattering(pot, k)
        # |a| >= 1 reaches ~1e3 under barriers; errors and the roundoff of
        # |a|^2 - |b|^2 scale with it
        assert abs(c.a - a) <= 1e-9 * abs(a)
        assert abs(c.b - b) <= 1e-9 * abs(a)
        assert abs(abs(c.a) ** 2 - abs(c.b) ** 2 - 1.0) <= 1e-12 * abs(c.a) ** 2

    def test_lorentzian_matches_dop853(self):
        # the DOP853 oracle integrates the core |x| <= T between the solve's
        # own tail factors
        pot = LorentzianSum(pairs=((1.0, 0.02),))
        c = solve_scattering(pot, 1.0)
        t_core, left, right = direct1d._tail_factors(pot.pairs, 1.0)
        a, b = right @ dop853_scattering(pot, 1.0, (-t_core, t_core), left[:, 0])
        assert abs(c.a - a) <= 1e-9
        assert abs(c.b - b) <= 1e-9
        assert abs(abs(c.a) ** 2 - abs(c.b) ** 2 - 1.0) <= 1e-12

    @pytest.mark.parametrize("q0", [-3.0, 2.0])
    def test_square_well_is_exact(self, q0):
        # a constant-Q step is exact: plane-wave matching to roundoff
        well = SquareWell(q0=q0, x0=0.0, length=1.0)
        for k in np.linspace(0.5, 5.0, 10):
            c = solve_scattering(well, k)
            a, b = square_well_pair(q0, 1.0, k)
            assert abs(c.a - a) <= 1e-12
            assert abs(c.b - b) <= 1e-12


class TestWideTables:
    """A table's features are found however wide its zero margins are."""

    def test_narrow_well_far_from_the_centre(self, budget):
        # 32 equal first intervals of 62.5 once stepped over this well (|db| 11.9)
        x = np.linspace(-1000.0, 1000.0, 200001)
        wide = Tabulated(x, sech_samples(x, 400.0, 437.3, 0.05))
        near = (x >= 427.3) & (x <= 447.3)
        cut = Tabulated(x[near], wide.q[near])
        for k in (0.5, 2.0):
            c, ref = solve_scattering(wide, k), solve_scattering(cut, k)
            assert abs(c.a - ref.a) <= 1e-8 * abs(ref.a)
            assert abs(c.b - ref.b) <= 1e-8 * abs(ref.a)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(center=st.floats(-900.0, 900.0), width=st.floats(0.02, 1.0),
           depth=st.floats(0.1, 50.0), k=st.floats(0.2, 5.0))
    def test_zero_padding_changes_nothing(self, center, width, depth, k, budget):
        x = center + width * np.linspace(-25.0, 25.0, 501)
        q = sech_samples(x, depth, center, width)
        left = np.linspace(-1000.0, x[0], 101)[:-1]
        right = np.linspace(x[-1], 1000.0, 101)[1:]
        padded = Tabulated(np.concatenate([left, x, right]),
                           np.concatenate([0.0 * left, q, 0.0 * right]))
        c, ref = solve_scattering(padded, k), solve_scattering(Tabulated(x, q), k)
        assert abs(c.a - ref.a) <= 1e-8 * abs(ref.a)
        assert abs(c.b - ref.b) <= 1e-8 * abs(ref.a)

    @pytest.mark.parametrize("lo, hi", [(-6.0, 14.0), (-30.0, 10.0)])
    def test_deep_states_off_the_window_middle(self, lo, hi, budget):
        # depth 100, width 0.2: eta = (lambda - n)/0.2 with lambda (lambda + 1) = 4;
        # norming points at the window middle once read spreads of 2e-3 and 2
        x = np.linspace(lo, hi, int(round(100 * (hi - lo))) + 1)
        states = find_bound_states(Tabulated(x, sech_samples(x, 100.0, 3.71, 0.2)), 10.2)
        lam = 0.5 * (np.sqrt(17.0) - 1.0)
        assert [pytest.approx(s.eta, abs=1e-5) for s in states] == [(lam - 1) / 0.2, lam / 0.2]
        # shifting the well by c multiplies the ratio by e^{2 eta c}; the
        # excited state is odd
        for s, sign in zip(states, (-1.0, 1.0)):
            assert s.norming == pytest.approx(sign * np.exp(2.0 * s.eta * 3.71), rel=1e-4)

    def test_narrow_bump_rings_into_no_first_interval(self, budget):
        # q = 3 on three samples: the spline rings past them for about 25
        # samples a side, which knots at the nonzero samples alone stepped
        # over (R^2 = 0.16118729629281 on +-1000)
        def r2(half_width, n):
            x = np.linspace(-half_width, half_width, n)
            c = solve_scattering(Tabulated(x, np.where(np.abs(x - 0.4) < 0.15, 3.0, 0.0)), 1.0)
            return abs(c.reflection) ** 2

        near = r2(10.0, 201)
        assert near == pytest.approx(0.15309101261561633, abs=1e-12)
        assert abs(r2(1000.0, 20001) - near) <= 1e-10

    def test_sampled_data_keeps_a_state_between_scan_points(self, budget):
        # 2001 window points on +-1000 read 19.8 of the peak 99.75, which
        # left eta_max short of the deep state at 7.81
        x = np.linspace(-1000.0, 1000.0, 200001)
        pot = Tabulated(x, sech_samples(x, 100.0, 3.71, 0.2))
        data = sample_reflection(pot, kmax=8.0, dk=1e-2, n_solve=40)
        assert [pytest.approx(s.eta, abs=1e-5) for s in data.bound_states] == [
            2.8077640640, 7.8077640640]


class TestTableSpline:
    """Every table is the quintic not-a-knot spline of its samples."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
    def test_short_tables_reproduce_their_samples(self, n, complex_values, rng):
        # degree n - 1 below six samples: one interpolating polynomial
        x = np.sort(rng.uniform(-1.0, 1.0, n))
        v = rng.standard_normal(n)
        if complex_values:
            table = TabulatedPulse(t=x, E=v + 1j * rng.standard_normal(n))
            v = table.E
        else:
            table = Tabulated(x, v)
        assert np.max(np.abs(table(x) - v)) <= 1e-14

    def test_sampled_jump_rings_more_but_scatters_closer(self):
        # a well of depth 3 on |x| < 1.005 sampled at h = 0.01, its edges
        # between samples; a cubic spline overshot by 0.32 and erred by
        # 8.9e-4 in T
        x = np.arange(-300, 301) * 0.01
        table = Tabulated(x, np.where(np.abs(x) < 1.005, 3.0, 0.0))
        assert np.max(table(np.linspace(-3.0, 3.0, 600001))) - 3.0 <= 0.4
        well = solve_scattering(SquareWell(q0=3.0, x0=-1.005, length=2.01), 1.0)
        assert abs(solve_scattering(table, 1.0).transmission - well.transmission) <= 2e-5


class TestNarrowLorentzians:
    """A Lorentzian sum runs out of its peak at x = 0, so a narrow well there
    is resolved instead of stepped over."""

    # a -> 0 gives Q = 2 pi b delta(x): |R|^2 = g^2/(1 + g^2), g = pi b / k = 2 pi
    DELTA_LIMIT = 4.0 * np.pi**2 / (1.0 + 4.0 * np.pi**2)

    # below a = 1e-154, x^2 + a^2 would underflow to 0 in the profile
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a", [1e-300, 1e-200, 1e-20, 1e-18, 1e-16, 1e-14, 1e-13])
    def test_narrow_well_reaches_the_delta_limit(self, a, budget):
        c = solve_scattering(LorentzianSum(((a, 1.0),)), 0.5)
        assert abs(abs(c.reflection) ** 2 - self.DELTA_LIMIT) <= 1e-9

    def test_barrier_transmission(self, budget):
        # |T| ~ 3.5e-23: the two spans are joined by the adjugate, where an
        # LU inverse of the leftward span gave 9.8e-16
        c = solve_scattering(LorentzianSum(((3.0, -20.0),)), 0.5)
        assert abs(c.transmission) == pytest.approx(3.526934372e-23, rel=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_leftward_span_is_the_mirror_image(self, seed):
        # Q is even: the span from 0 to -X is P M P, P = diag(1, -1), for the
        # span M from 0 to X
        rng = np.random.default_rng(seed)
        q = LorentzianSum(tuple(zip(rng.uniform(0.1, 3.0, 3), rng.uniform(-0.5, 0.5, 3))))
        k = rng.uniform(0.1, 3.0)
        x0, x1 = q.window

        def gen(x):
            return 0.0, k, -(k * k + q(x)) / k, 0.0

        m = transfer_matrix(gen, 0.0, x1, 1e-10, "right span")
        left = transfer_matrix(gen, 0.0, x0, 1e-10, "left span")
        p = np.diag([1.0, -1.0])
        assert np.max(np.abs(left - p @ m @ p)) <= 1e-14 * np.max(np.abs(m))

    def test_one_span_per_solve(self, monkeypatch):
        calls = []

        def spy(gen, x_from, x_to, *args):
            calls.append((x_from, x_to))
            return transfer_matrix(gen, x_from, x_to, *args)

        monkeypatch.setattr(direct1d, "transfer_matrix", spy)
        q = LorentzianSum(((1.0, 0.3), (0.2, -0.1)))
        solve_scattering(q, 0.7)
        assert calls == [(0.0, direct1d._lorentzian_tails(q.pairs, 0.0)[0])]


def windowed_transmission(q, k, width):
    # T of a LorentzianSum cut to |x| <= width, with no tail factors
    def gen(x):
        return 0.0, k, -(k * k + q(x)) / k, 0.0

    amin = min(a for a, _ in q.pairs)
    m = transfer_matrix(gen, 0.0, width, 1e-10, "reference",
                        amin * 2.0 ** np.arange(np.log2(width / amin)))
    (m00, m01), (m10, m11) = m
    m = m @ np.array([[m11, m01], [m10, m00]])
    y0, y1 = m[0, 0] - 1j * m[0, 1], m[1, 0] - 1j * m[1, 1]
    return 1.0 / (0.5 * np.exp(2j * k * width) * (y0 + 1j * y1))


class TestLorentzianTails:
    """A Lorentzian sum propagates its core |x| <= T and takes the 1/x^2
    tails beyond as exact moments."""

    @pytest.mark.parametrize("pairs, k", [
        (((1.0, 0.02),), 1.0),
        (((1.0, 0.3), (0.2, -0.1)), 0.5),
        (((1.0, 0.3), (0.2, -0.1)), 2.0),
    ])
    def test_tails_match_wide_windows(self, pairs, k, budget):
        # a cut at |x| = W drops a tail that moves T like 1/W: extrapolate
        # windows of 2e5 and 2e6; a 1e-10 window cut missed by 2.0e-6
        q = LorentzianSum(pairs)
        near, far = (windowed_transmission(q, k, w) for w in (2e5, 2e6))
        want = (10.0 * far - near) / 9.0
        assert abs(solve_scattering(q, k).transmission - want) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(pairs=st.lists(st.tuples(st.floats(0.1, 3.0), st.floats(-0.5, 0.5)),
                          min_size=1, max_size=3).map(tuple),
           k=st.floats(0.2, 5.0))
    def test_flux_and_parity(self, pairs, k):
        # Q is even, so R conj(T) = b / |a|^2 is imaginary
        c = solve_scattering(LorentzianSum(pairs), k)
        scale = 1e-12 * abs(c.a) ** 2
        assert abs(abs(c.a) ** 2 - abs(c.b) ** 2 - 1.0) <= scale
        assert abs(c.b.real) <= scale


class TestBoundStates:
    def test_free_particle_none(self):
        assert find_bound_states(Zero(), 3.0) == []

    def test_barrier_none(self):
        assert find_bound_states(SquareWell(q0=-3.0, x0=0.0, length=1.0), 3.0) == []

    def test_sech_squared_single(self):
        states = find_bound_states(SechSquared(eta=1.0), 3.0)
        assert len(states) == 1
        assert states[0].eta == pytest.approx(1.0, abs=1e-6)
        # left and right decaying solutions coincide: ratio is exactly 1
        assert states[0].norming == pytest.approx(1.0, abs=1e-6)

    def test_six_sech_squared_two_states(self):
        x = np.linspace(-18.0, 18.0, 1401)
        pot = Tabulated(x=x, q=6.0 / np.cosh(x) ** 2)
        states = find_bound_states(pot, 3.0)
        assert [pytest.approx(s.eta, abs=1e-6) for s in states] == [1.0, 2.0]
        # odd first excited state flips the Jost ratio sign
        assert states[0].norming == pytest.approx(-1.0, abs=1e-5)
        assert states[1].norming == pytest.approx(1.0, abs=1e-5)

    def test_norming_off_the_eigenvalue_raises(self):
        # 1% off the bound state at eta = 1 the two solutions do not match,
        # and their ratio varies across the window (spread 2.7e-3)
        with pytest.raises(NumericalError, match="norming ratio varies with x"):
            direct1d._norming_ratio(SechSquared(1.0), 1.01)

    def test_off_center_norming(self):
        # shifting the well by c multiplies the ratio by e^{2 eta c}
        states = find_bound_states(SechSquared(eta=1.0, center=0.5), 3.0)
        assert len(states) == 1
        assert states[0].norming == pytest.approx(np.exp(1.0), rel=1e-6)

    def test_weak_lorentzian_single_state(self, budget):
        # once minutes of DOP853; a weak well binds once, with eta close to
        # the first-order value (1/2) int Q dx = pi b
        states = find_bound_states(LorentzianSum(pairs=((1.0, 0.01),)), 3.0)
        assert len(states) == 1
        assert states[0].eta == pytest.approx(np.pi * 0.01, rel=0.15)

    @pytest.mark.parametrize("b", [0.005, 0.002])
    def test_state_below_the_first_scan_point(self, b, budget):
        # eta ~ pi b lies under eta_max / n_scan = 0.025; the well is even,
        # so the left and right Jost solutions agree and the norming is 1
        states = find_bound_states(LorentzianSum(pairs=((1.0, b),)), 3.0)
        assert len(states) == 1
        assert 0.9 * np.pi * b <= states[0].eta <= np.pi * b
        assert states[0].norming == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_eta_max(self):
        with pytest.raises(ValueError):
            find_bound_states(Zero(), -1.0)
        with pytest.raises(ValueError):
            BoundState(eta=0.0, norming=1.0)


class TestFields:
    def test_equal_potentials(self):
        u = SquareWell(q0=1.0, x0=-1.0, length=2.0)
        x = np.linspace(-2.0, 2.0, 801)
        a, q = fields_from_potentials(u, u, x)
        np.testing.assert_allclose(a, 0.0, atol=1e-14)
        np.testing.assert_allclose(q, u(x), atol=1e-14)

    def test_sech_closed_form(self):
        u = SechSquared(eta=1.0)
        x = np.linspace(-40.0, 40.0, 8001)
        a, q = fields_from_potentials(u, Zero(), x)
        np.testing.assert_allclose(a, np.tanh(x) + 1.0, atol=1e-5)
        np.testing.assert_allclose(q, a * a + 1.0 / np.cosh(x) ** 2, atol=1e-12)

    def test_round_trip_identities(self, rng):
        x = np.linspace(-6.0, 6.0, 1201)
        u = Tabulated(x=x, q=rng.standard_normal(x.size) * np.exp(-(x**2)))
        v = Tabulated(x=x, q=rng.standard_normal(x.size) * np.exp(-(x**2)))
        a, q = fields_from_potentials(u, v, x)
        da = 0.5 * (u(x) - v(x))
        np.testing.assert_allclose(q + da - a * a, u(x), atol=1e-8)
        np.testing.assert_allclose(q - da - a * a, v(x), atol=1e-8)

    def test_grid_must_cover_windows(self):
        with pytest.raises(ValueError):
            fields_from_potentials(
                SechSquared(eta=1.0), Zero(), np.linspace(-5.0, 5.0, 100)
            )


class TestEmSpinSmatrix:
    def test_free_blocks(self):
        s = em_spin_smatrix(Zero(), Zero(), 1.0)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        np.testing.assert_allclose(s[:2, :2], x, atol=1e-12)
        np.testing.assert_allclose(s[2:, 2:], x, atol=1e-12)

    def test_sech_block(self):
        s = em_spin_smatrix(Zero(), SechSquared(eta=1.0), 1.0)
        # a_V = (1-i)/(1+i) = -i, so the V block is [[0, i], [i, 0]]
        np.testing.assert_allclose(s[2:, 2:], [[0, 1j], [1j, 0]], atol=1e-8)
        assert np.all(s[:2, 2:] == 0) and np.all(s[2:, :2] == 0)

    def test_blocks_match_independent_solves(self):
        u = SquareWell(q0=2.0, x0=0.0, length=1.5)
        v = SechSquared(eta=0.8)
        k = 1.1
        s = em_spin_smatrix(u, v, k)
        np.testing.assert_allclose(s[:2, :2], solve_scattering(u, k).smatrix, atol=1e-10)
        np.testing.assert_allclose(s[2:, 2:], solve_scattering(v, k).smatrix, atol=1e-10)
        np.testing.assert_allclose(s.conj().T @ s, np.eye(4), atol=1e-8)


class TestSerialization:
    def test_round_trip_all_variants(self):
        x = np.linspace(-2.0, 2.0, 9)
        pots = [
            Zero(),
            SquareWell(q0=-3.0, x0=0.0, length=1.0),
            SechSquared(eta=1.2, center=-0.4),
            LorentzianSum(pairs=((1.0, 0.1), (2.0, -0.05))),
            Tabulated(x=x, q=np.exp(-(x**2))),
        ]
        grid = np.linspace(-1.5, 1.5, 7)
        for pot in pots:
            back = from_json(PotentialSpec, pot.to_json())
            assert back.variant == pot.variant
            np.testing.assert_allclose(back(grid), pot(grid), atol=1e-14)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            from_json(PotentialSpec, {"variant": "bogus"})

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            Tabulated(x=np.array([0.0, 1.0, 1.0, 2.0]), q=np.zeros(4))
        with pytest.raises(ValueError):
            Tabulated(x=np.array([0.0, 1.0]), q=np.zeros(2))

    def test_momentum_grid_validation(self):
        with pytest.raises(ValueError):
            momentum_grid(-1.0, 2.0, 5)
        with pytest.raises(ValueError):
            momentum_grid(2.0, 1.0, 5)
        np.testing.assert_allclose(momentum_grid(1.0, 1.0, 1), [1.0])
