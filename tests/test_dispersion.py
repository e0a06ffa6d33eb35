import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scattergate.codec import from_json
from scattergate.direct1d import BoundState, SechSquared, SquareWell, solve_scattering
from scattergate.dispersion import (
    GateTarget,
    ReflectionData,
    build_scattering_data,
    principal_value_integral,
    reconstruct_transmission,
    sample_reflection,
)
from scattergate.errors import InfeasibleTargetError

from conftest import mirrored_reflection


class TestPrincipalValue:
    def test_constant_integrand(self):
        x = np.linspace(-5.0, 5.0, 20001)
        got = principal_value_integral(x, np.ones_like(x), 1.0)
        assert got == pytest.approx(np.log(4.0 / 6.0), abs=1e-10)

    def test_linear_integrand(self):
        x = np.linspace(-5.0, 5.0, 20001)
        got = principal_value_integral(x, x, 1.0)
        assert got == pytest.approx(10.0 + np.log(4.0 / 6.0), abs=1e-8)

    def test_hilbert_pair(self):
        # PV int (1/(1+t^2))/(t-k) dt = -pi k/(1+k^2) on the full line
        x = np.linspace(-200.0, 200.0, 200001)
        f = 1.0 / (1.0 + x * x)
        for k in (0.3, 1.0, 2.5):
            got = principal_value_integral(x, f, k)
            assert got == pytest.approx(-np.pi * k / (1.0 + k * k), abs=1e-4)

    def test_point_on_grid(self):
        x = np.linspace(-5.0, 5.0, 10001)
        f = 1.0 / (1.0 + x * x)
        on = principal_value_integral(x, f, x[6000])
        off = principal_value_integral(x, f, x[6000] + 1e-7)
        assert on == pytest.approx(off, abs=1e-5)

    def test_requires_interior_point(self):
        with pytest.raises(ValueError):
            principal_value_integral(np.linspace(0, 1, 10), np.ones(10), 2.0)


def flat_data(**kw):
    k = np.linspace(-3.0, 3.0, 61)
    return ReflectionData(k=k, R=np.zeros(61, dtype=complex), **kw)


class TestReconstruct:
    def test_trivial(self):
        data = flat_data()
        assert reconstruct_transmission(data, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_pure_bound_state_blaschke(self):
        data = flat_data(bound_states=(BoundState(eta=1.0, norming=1.0),))
        for k in (0.5, 1.0, 2.0):
            want = (k + 1j) / (k - 1j)
            assert reconstruct_transmission(data, k) == pytest.approx(want, abs=1e-12)
        assert reconstruct_transmission(data, 1.0) == pytest.approx(1j, abs=1e-12)

    def test_blaschke_unimodular(self):
        for eta in (0.3, 1.0, 4.0):
            for k in (0.2, 1.7, 3.3):
                assert abs((k + 1j * eta) / (k - 1j * eta)) == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(
        bumps=st.lists(
            st.tuples(
                st.floats(0.05, 0.2), st.floats(0.0, 3.0), st.floats(0.2, 1.0),
                st.floats(-np.pi, np.pi),
            ),
            max_size=2,
        ),
        etas=st.lists(st.floats(0.3, 2.0), max_size=3),
    )
    def test_nodes_match_the_axis_formula(self, bumps, etas):
        # at a grid node T = sqrt(1 - |R|^2) prod (k + i eta)/(k - i eta)
        # * exp(-i PV/(2 pi)), PV the principal value of ln(1 - |R|^2)
        k = np.arange(-8.0, 8.0 + 0.01, 0.01)
        R = mirrored_reflection(k, bumps)
        data = ReflectionData(k=k, R=R, bound_states=tuple(BoundState(e, 1.0) for e in etas))
        h = np.log1p(-np.abs(R) ** 2)
        for i in (1, 437, 800, 950, 1203, k.size - 2):
            want = np.sqrt(1.0 - abs(R[i]) ** 2) * np.exp(
                -0.5j * principal_value_integral(k, h, k[i]) / np.pi
            )
            for e in etas:
                want *= (k[i] + 1j * e) / (k[i] - 1j * e)
            assert abs(reconstruct_transmission(data, k[i]) - want) <= 1e-12 * abs(want)

    def test_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_transmission(flat_data(), 5.0)


@pytest.fixture(scope="module")
def well_data():
    return sample_reflection(SquareWell(q0=-3.0, x0=0.0, length=1.0))


class TestSquareWellReconstruction:
    def test_matches_direct_solve(self, well_data):
        for k in (0.5, 0.9, 1.7, 2.9, 4.2, 5.0):
            got = reconstruct_transmission(well_data, k)
            want = solve_scattering(SquareWell(q0=-3.0, x0=0.0, length=1.0), k).transmission
            assert abs(got - want) < 2e-3
            assert abs(abs(got) - abs(want)) < 2e-3

    def test_modulus_identity(self, well_data):
        for k in (0.6, 1.3, 2.2, 3.4):
            t = reconstruct_transmission(well_data, k)
            r = well_data.reflection_at(k)
            assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=2e-3)

    def test_grid_density_self_consistency(self, well_data):
        # doubling the quadrature spacing barely moves the phase
        coarse = ReflectionData(
            k=well_data.k[::2], R=well_data.R[::2], bound_states=well_data.bound_states
        )
        for k in (0.7, 1.9, 3.1):
            fine_t = reconstruct_transmission(well_data, k)
            coarse_t = reconstruct_transmission(coarse, k)
            dphi = np.angle(fine_t / coarse_t)
            assert abs(dphi) < 5e-4

    def test_no_bound_states_for_barrier(self, well_data):
        assert well_data.bound_states == ()


class TestSampledSech:
    def test_bound_state_and_blaschke(self):
        data = sample_reflection(SechSquared(eta=1.0), kmax=8.0, dk=1e-3, n_solve=200)
        assert len(data.bound_states) == 1
        assert data.bound_states[0].eta == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(data.R)) < 1e-6
        for k in (0.7, 1.0, 2.5):
            got = reconstruct_transmission(data, k)
            assert got == pytest.approx((k + 1j) / (k - 1j), abs=1e-5)


class TestReflectionData:
    def test_validation(self):
        k = np.linspace(-1.0, 1.0, 11)
        with pytest.raises(ValueError):
            ReflectionData(k=k, R=np.full(11, 0.5 + 0j))  # ends not decayed
        with pytest.raises(ValueError):
            ReflectionData(k=k, R=np.full(11, 1.5 + 0j))  # modulus >= 1
        with pytest.raises(ValueError):
            ReflectionData(k=np.linspace(0.1, 1.0, 11), R=np.zeros(11, complex))

    def test_json_round_trip(self):
        k = np.linspace(-2.0, 2.0, 41)
        R = 0.3 * np.exp(-(k**2) * 4) * np.exp(0.7j * k)
        R = np.where(np.abs(k) > 1.8, 0.0, R)
        data = ReflectionData(k=k, R=R, bound_states=(BoundState(1.0, 2.0),))
        back = from_json(ReflectionData, data.to_json())
        np.testing.assert_allclose(back.k, data.k)
        np.testing.assert_allclose(back.R, data.R)
        assert back.bound_states == data.bound_states


class TestBuilder:
    def test_single_reflectionless_target(self):
        data = build_scattering_data([GateTarget(k=1.0, t=1.0, r=0.0)])
        assert np.max(np.abs(data.R)) == 0.0
        assert reconstruct_transmission(data, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_single_target_with_phase(self):
        # +0.02 and -0.05 sit inside the measured steering band at |r|=1/sqrt(2)
        s2 = 1.0 / np.sqrt(2.0)
        for phase in (0.02, -0.05):
            tgt = GateTarget(k=1.0, t=s2 * np.exp(1j * phase), r=s2 * np.exp(1.3j))
            data = build_scattering_data([tgt])
            assert abs(reconstruct_transmission(data, 1.0) - tgt.t) < 1e-3
            assert abs(data.reflection_at(1.0) - tgt.r) < 1e-3

    def test_hadamard_pair(self):
        s2 = 1.0 / np.sqrt(2.0)
        targets = [GateTarget(k=1.0, t=s2, r=s2), GateTarget(k=2.0, t=s2, r=s2)]
        data = build_scattering_data(targets)
        for g in targets:
            assert abs(reconstruct_transmission(data, g.k) - g.t) < 1e-3
            assert abs(data.reflection_at(g.k) - g.r) < 1e-3
        # reality constraint baked into the construction
        mid = data.k.size // 2
        np.testing.assert_allclose(
            data.R[:mid], np.conj(data.R[-1 : mid - 1 : -1]), atol=1e-15
        )

    def test_unreachable_phase(self):
        s2 = 1.0 / np.sqrt(2.0)
        with pytest.raises(InfeasibleTargetError):
            build_scattering_data([GateTarget(k=1.0, t=s2 * np.exp(1.0j), r=s2)])

    def test_target_validation(self):
        with pytest.raises(ValueError):
            GateTarget(k=1.0, t=1.0, r=1.0)
        with pytest.raises(ValueError):
            GateTarget(k=-1.0, t=1.0, r=0.0)
        with pytest.raises(ValueError):
            GateTarget(k=1.0, t=0.0, r=1.0)
