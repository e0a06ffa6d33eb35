import numpy as np
import pytest
from scipy.linalg import expm

from scattergate.algebra import SIGMA3
from scattergate.codec import from_json
from scattergate.errors import NumericalError
from scattergate.fuchsian import (
    CircleLoop,
    FuchsianSystem,
    Loop,
    PolylineLoop,
    gauge_to_su2,
    lorentzian_to_fuchsian,
    monodromy,
    monodromy_product,
    odd_lorentzian_to_fuchsian,
    pv_monodromy_example4,
)
from scattergate.twolevel import (
    LorentzianPulse,
    LorentzianPulseSum,
    PulseSpec,
    TabulatedPulse,
    scattering_matrix,
)


def random_contraction(seed, scale=0.9):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return scale * g / np.linalg.norm(g, 2)


def two_pole_system(seed=5):
    a0 = random_contraction(seed, 0.6)
    a1 = random_contraction(seed + 100, 0.6)
    return FuchsianSystem(poles=(0.0, 1.4 + 0.3j), residues=(a0, a1))


class TestSystemAndLoops:
    def test_omega_sums_simple_poles(self):
        sys = FuchsianSystem(poles=(0.0, 2.0), residues=(SIGMA3, 2 * SIGMA3))
        np.testing.assert_allclose(sys.omega(1.0), SIGMA3 - 2 * SIGMA3)
        z = np.array([[1.0, 0.5j], [-1.0, 3.0 + 1.0j]])
        stack = sys.omega(z)
        assert stack.shape == (2, 2, 2, 2)
        for i, j in np.ndindex(z.shape):
            np.testing.assert_allclose(stack[i, j], sys.omega(z[i, j]))

    def test_coincident_poles_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            FuchsianSystem(poles=(0.0, 1e-9), residues=(SIGMA3, SIGMA3))

    def test_residue_shape_checked(self):
        with pytest.raises(ValueError, match="2x2"):
            FuchsianSystem(poles=(0.0,), residues=(np.eye(3),))

    def test_circle_validation(self):
        with pytest.raises(ValueError, match="radius"):
            CircleLoop(center=0.0, radius=0.0)
        with pytest.raises(ValueError, match="orientation"):
            CircleLoop(center=0.0, radius=1.0, orientation=2)

    def test_polyline_must_close(self):
        with pytest.raises(ValueError, match="close"):
            PolylineLoop(points=(0.0, 1.0, 1.0 + 1.0j, 0.1j))

    def test_pole_distance_geometry(self):
        circ = CircleLoop(center=1.0j, radius=0.5)
        assert abs(circ.pole_distance(1.0j) - 0.5) < 1e-15
        square = PolylineLoop(points=(1.0, 1.0j, -1.0, -1.0j, 1.0))
        assert abs(square.pole_distance(0.0) - np.sqrt(0.5)) < 1e-12

    def test_system_json_round_trip(self):
        sys = two_pole_system()
        back = from_json(FuchsianSystem, sys.to_json())
        assert back.poles == sys.poles
        for m, n in zip(back.residues, sys.residues):
            np.testing.assert_allclose(m, n)

    def test_loop_json_round_trips(self):
        circ = CircleLoop(center=0.5j, radius=0.5, orientation=-1)
        back = from_json(Loop, circ.to_json())
        assert back.center == circ.center and back.orientation == -1
        poly = PolylineLoop(points=(0.0, 1.0, 1.0j, 0.0), on_contour=True)
        back = from_json(Loop, poly.to_json())
        assert back.points == poly.points and back.on_contour
        with pytest.raises(ValueError, match="loop kind"):
            from_json(Loop, {"kind": "arc"})


class TestMonodromy:
    def test_one_pole_quarter_weight(self):
        sys = FuchsianSystem(poles=(0.0,), residues=(0.25 * SIGMA3,))
        m = monodromy(sys, CircleLoop(center=0.0, radius=1.0))
        np.testing.assert_allclose(m, np.diag([1j, -1j]), atol=1e-8)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_pole_matches_exponential(self, seed):
        a = random_contraction(seed)
        sys = FuchsianSystem(poles=(0.3 - 0.2j,), residues=(a,))
        m = monodromy(sys, CircleLoop(center=0.3 - 0.2j, radius=0.7))
        np.testing.assert_allclose(m, expm(2j * np.pi * a), atol=1e-8)

    def test_contractible_loop_is_identity(self):
        m = monodromy(two_pole_system(), CircleLoop(center=5.0, radius=1.0))
        np.testing.assert_allclose(m, np.eye(2), atol=1e-8)

    def test_orientation_inverts(self):
        sys = two_pole_system()
        ccw = monodromy(sys, CircleLoop(center=0.0, radius=0.5))
        cw = monodromy(sys, CircleLoop(center=0.0, radius=0.5, orientation=-1))
        np.testing.assert_allclose(ccw @ cw, np.eye(2), atol=1e-9)

    def test_homotopy_invariance(self):
        # same pole enclosed, different shapes; the second pole keeps the
        # 1-form varying along the path so this is not a residue triviality
        sys = two_pole_system()
        circ = monodromy(sys, CircleLoop(center=0.0, radius=0.5))
        box = monodromy(
            sys,
            PolylineLoop(
                points=(0.5, 0.5 + 0.6j, -0.7 + 0.6j, -0.7 - 0.55j, 0.5 - 0.55j, 0.5)
            ),
        )
        np.testing.assert_allclose(circ, box, atol=1e-7)

    def test_base_point_moves_conjugate(self):
        sys = two_pole_system()
        square = (0.5, 0.5 + 0.5j, -0.5 + 0.5j, -0.5 - 0.5j, 0.5 - 0.5j, 0.5)
        rolled = square[2:-1] + square[:2] + (square[2],)
        m1 = monodromy(sys, PolylineLoop(points=square))
        m2 = monodromy(sys, PolylineLoop(points=rolled))
        assert abs(np.trace(m1) - np.trace(m2)) < 1e-8
        assert np.abs(m1 - m2).max() > 1e-3  # genuinely conjugate, not equal

    def test_discretization_independence(self):
        # refining the adaptive Magnus steps can only sharpen the result
        sys = two_pole_system()
        m_coarse = monodromy(sys, CircleLoop(center=0.0, radius=0.5), rtol=1e-6)
        m_fine = monodromy(sys, CircleLoop(center=0.0, radius=0.5), rtol=1e-12)
        np.testing.assert_allclose(m_coarse, m_fine, atol=1e-7)

    def test_pole_near_path_rejected(self):
        sys = FuchsianSystem(poles=(1.0,), residues=(SIGMA3,))
        with pytest.raises(ValueError, match="pole 0"):
            monodromy(sys, CircleLoop(center=0.0, radius=1.0 - 1e-7))

    def test_on_contour_needs_pv(self):
        sys = FuchsianSystem(poles=(1.0,), residues=(SIGMA3,))
        loop = CircleLoop(center=0.0, radius=1.0, on_contour=True)
        with pytest.raises(NumericalError, match="principal value"):
            monodromy(sys, loop)


class TestMonodromyProduct:
    def test_empty_product_is_identity(self):
        np.testing.assert_allclose(
            monodromy_product(two_pole_system(), ()), np.eye(2)
        )

    def test_single_loop_matches_monodromy(self):
        sys = two_pole_system()
        loop = CircleLoop(center=0.0, radius=0.5)
        np.testing.assert_allclose(
            monodromy_product(sys, (loop,)), monodromy(sys, loop), atol=1e-12
        )

    def test_base_point_mismatch_rejected(self):
        loops = (
            CircleLoop(center=0.0, radius=0.5),
            CircleLoop(center=1.4 + 0.3j, radius=0.2),
        )
        with pytest.raises(ValueError, match="base point"):
            monodromy_product(two_pole_system(), loops)


class TestLorentzianBridge:
    def test_pole_layout(self):
        sys, loop = lorentzian_to_fuchsian(2.0, 0.25)
        np.testing.assert_allclose(sys.poles, (1j / 3.0, -1j))
        np.testing.assert_allclose(sys.residues[0], 0.25 * SIGMA3)
        np.testing.assert_allclose(sys.residues[1], -0.25 * SIGMA3)
        assert loop.orientation == -1
        # the time-line image circle always separates the two poles
        assert abs(sys.poles[0] - loop.center) < loop.radius
        assert abs(sys.poles[1] - loop.center) > loop.radius

    def test_unit_width_rejected(self):
        with pytest.raises(ValueError, match="infinity"):
            lorentzian_to_fuchsian(1.0, 0.3)
        with pytest.raises(ValueError, match="positive"):
            lorentzian_to_fuchsian(-2.0, 0.3)

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_monodromy_matches_pulse_smatrix(self, a):
        sys, loop = lorentzian_to_fuchsian(a, 0.25)
        m = monodromy(sys, loop)
        np.testing.assert_allclose(
            m, expm(-2j * np.pi * 0.25 * SIGMA3), atol=1e-9
        )
        s = scattering_matrix(PulseSpec(LorentzianPulse(a, 0.25)))
        np.testing.assert_allclose(gauge_to_su2(m), s, atol=1e-6)

    def test_two_pulse_product_formula(self):
        # one system holding both pulses' poles; clockwise boxes around the
        # two inside poles share the corner 0.15+0.29i as base point
        sys_a, _ = lorentzian_to_fuchsian(2.0, 0.1)
        sys_b, _ = lorentzian_to_fuchsian(3.0, 0.15)
        combined = FuchsianSystem(
            poles=sys_a.poles + sys_b.poles,
            residues=sys_a.residues + sys_b.residues,
        )
        base = 0.15 + 0.29j
        around_quarter = PolylineLoop(
            points=(base, 0.15 + 0.1j, -0.15 + 0.1j, -0.15 + 0.29j, base)
        )
        around_third = PolylineLoop(
            points=(base, -0.15 + 0.29j, -0.15 + 0.45j, 0.15 + 0.45j, base)
        )
        prod = monodromy_product(combined, (around_third, around_quarter))
        np.testing.assert_allclose(
            prod, expm(-2j * np.pi * 0.25 * SIGMA3), atol=1e-6
        )
        s = scattering_matrix(PulseSpec(LorentzianPulseSum(((2.0, 0.1), (3.0, 0.15)))))
        np.testing.assert_allclose(gauge_to_su2(prod), s, atol=1e-6)


class TestPrincipalValue:
    def test_partial_fraction_coefficients(self):
        sys, loop = odd_lorentzian_to_fuchsian(2.0)
        np.testing.assert_allclose(sys.poles, (0.0, 1j / 3.0, -1j))
        coeffs = [m[0, 0] for m in sys.residues]
        np.testing.assert_allclose(coeffs, (2j, -1j, -1j), atol=1e-12)
        assert loop.on_contour

    @pytest.mark.parametrize("a", [0.5, 2.0, 7.0])
    def test_pv_monodromy_is_identity(self, a):
        # b1 + 2 b2 = 0 for every width, so the half-residue assembly
        # collapses to the identity
        np.testing.assert_allclose(
            pv_monodromy_example4(a), np.eye(2), atol=1e-12
        )

    def test_pv_matches_symmetric_window_pulse(self):
        t = np.arange(-50.0, 50.0 + 1e-9, 0.05)
        pulse = PulseSpec(TabulatedPulse(t, 2.0 * t / (t**2 + 4.0)))
        s = scattering_matrix(pulse)
        np.testing.assert_allclose(
            gauge_to_su2(pv_monodromy_example4(2.0)), s, atol=1e-3
        )

    def test_suppressing_contour_pole_recovers_plain_monodromy(self):
        # drop the on-contour z = 0 term: what is left is an ordinary
        # enclosed pole and direct integration must match exp(2 pi i b2 s3)
        sys, _ = odd_lorentzian_to_fuchsian(2.0)
        reduced = FuchsianSystem(poles=sys.poles[1:], residues=sys.residues[1:])
        m = monodromy(reduced, CircleLoop(center=sys.poles[1], radius=0.05))
        expected = expm(2j * np.pi * sys.residues[1])
        np.testing.assert_allclose(m, expected, rtol=1e-7, atol=1e-7)

    def test_unit_width_rejected(self):
        with pytest.raises(ValueError, match="infinity"):
            odd_lorentzian_to_fuchsian(1.0)
