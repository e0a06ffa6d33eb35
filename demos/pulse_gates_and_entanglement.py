"""Gates on a driven two-level system, and when two of them entangle.

On resonance only the pulse area matters: area pi/2 gives the gate
[[0,-i],[-i,0]] for any envelope shape.  Two dipole-coupled systems under
a shared rectangular drive implement a 4x4 gate whose operator-Schmidt
spectrum decides entangling power: the dipole-dipole term y is the knob.
"""

import dataclasses

import numpy as np

from scattergate import (
    DipoleParams,
    LorentzianPulse,
    PulseSpec,
    RectangularPulse,
    entanglement_verdict,
    f_matrix,
    operator_schmidt,
    scattering_matrix,
)


def main():
    # same area 2 pi / 4, three different shapes
    print("resonant S-matrices, area pi/2:")
    envelopes = [
        ("lorentzian a=1", LorentzianPulse(1.0, 0.25)),
        ("lorentzian a=3", LorentzianPulse(3.0, 0.25)),
        ("rectangular", RectangularPulse(np.pi / 4.0, 1.0)),
    ]
    target = np.array([[0.0, -1j], [-1j, 0.0]])
    for name, env in envelopes:
        s = scattering_matrix(PulseSpec(env))
        print(f"  {name:16s} max |S - [[0,-i],[-i,0]]| = "
              f"{np.max(np.abs(s - target)):.2e}")

    p = DipoleParams(
        d_A=0.8 + 0.3j,
        d_B=1.1 - 0.2j,
        W_plus_A=1.0,
        W_minus_A=-0.3,
        W_plus_B=0.7,
        W_minus_B=-0.5,
        x=0.2 + 0.1j,
        y=0.6,
        T=1.0,
    )
    print("\ndipole pair under a rectangular drive:")
    for label, q in (("y = 0.6", p), ("y = 0  ", dataclasses.replace(p, y=0.0))):
        f = f_matrix(q)
        coeffs = operator_schmidt(f).coefficients
        print(f"  {label}: schmidt = {np.array_str(coeffs, precision=4)}"
              f"  -> {entanglement_verdict(f)}")


if __name__ == "__main__":
    main()
