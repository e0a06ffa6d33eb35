import numpy as np
import pytest

from scattergate import direct1d
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

    def test_conjugation_symmetry(self):
        # launching e^{+ikx} instead propagates the conjugate solution
        pot = SquareWell(q0=-3.0, x0=0.0, length=1.0)
        k = 1.3
        from scipy.integrate import solve_ivp

        sol = solve_ivp(
            direct1d._envelope_rhs(pot, k),
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

    def test_off_center_norming(self):
        # shifting the well by c multiplies the ratio by e^{2 eta c}
        states = find_bound_states(SechSquared(eta=1.0, center=0.5), 3.0)
        assert len(states) == 1
        assert states[0].norming == pytest.approx(np.exp(1.0), rel=1e-6)

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
