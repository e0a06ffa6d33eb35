"""Pulse gates computed without time integration: loop around a pole.

A rational envelope turns the two-level equation into a Fuchsian system
on the Riemann sphere via z = 1/(t - i): the infinite time line becomes
a circle, and the S-matrix becomes the monodromy of one clockwise loop
around it.  Gates then come from contour integration, and a sum of
pulses is literally a product of loops.
"""

import numpy as np

from scattergate import (
    FuchsianSystem,
    LorentzianPulse,
    LorentzianPulseSum,
    PolylineLoop,
    PulseSpec,
    gauge_to_su2,
    lorentzian_to_fuchsian,
    monodromy,
    monodromy_product,
    pv_monodromy_example4,
    scattering_matrix,
)


def main():
    # one resonant pulse: two poles inside the image circle
    sys_one, loop = lorentzian_to_fuchsian(2.0, 0.25)
    m = gauge_to_su2(monodromy(sys_one, loop))
    s = scattering_matrix(PulseSpec(LorentzianPulse(2.0, 0.25)))
    print("poles of the system:", np.array_str(np.asarray(sys_one.poles), precision=4))
    print(f"loop monodromy vs time-domain S: max diff = {np.max(np.abs(m - s)):.2e}\n")

    # two pulses in one system: the product of the two loops is the gate
    # of the summed envelope (loops share the corner base point)
    sys_a, _ = lorentzian_to_fuchsian(2.0, 0.1)
    sys_b, _ = lorentzian_to_fuchsian(3.0, 0.15)
    combined = FuchsianSystem(
        poles=sys_a.poles + sys_b.poles, residues=sys_a.residues + sys_b.residues
    )
    base = 0.15 + 0.29j
    around_quarter = PolylineLoop(
        points=(base, 0.15 + 0.1j, -0.15 + 0.1j, -0.15 + 0.29j, base)
    )
    around_third = PolylineLoop(
        points=(base, -0.15 + 0.29j, -0.15 + 0.45j, 0.15 + 0.45j, base)
    )
    prod = monodromy_product(combined, (around_third, around_quarter))
    s_sum = scattering_matrix(PulseSpec(LorentzianPulseSum(((2.0, 0.1), (3.0, 0.15)))))
    print("loop product vs summed-pulse S: max diff =",
          f"{np.max(np.abs(gauge_to_su2(prod) - s_sum)):.2e}\n")

    # odd pulse 2t/(t^2 + a^2): one pole lands on the contour, so the
    # monodromy is a principal value; the residues conspire to the identity
    pv = pv_monodromy_example4(2.0)
    print("principal-value monodromy of the odd pulse:")
    print(np.array_str(pv, precision=6, suppress_small=True))


if __name__ == "__main__":
    main()
