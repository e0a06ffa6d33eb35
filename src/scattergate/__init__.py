"""Quantum logic gates realized as 1-D scattering matrices.

Submodules:

- algebra: SU(1,1) amplitude pairs, the gate matrices they encode, gate
  distance, operator Schmidt decomposition.
- direct1d: direct scattering for the stationary 1-D Schrodinger problem
  (amplitudes, bound states, norming constants) and the two-potential to
  field-envelope change of variables.
- dispersion: transmission reconstruction from reflection modulus and bound
  states via a principal-value dispersion integral, plus the builder that
  synthesizes reflection data hitting prescribed gate targets.
- glm: Gelfand-Levitan-Marchenko inversion (scalar Schrodinger and the 2x2
  two-level analogue) recovering potentials/pulses from scattering data.
- twolevel: driven two-level dynamics, pulse scattering matrices, spectral
  data of pulses, and the dipole-coupled two-qubit model.
- fuchsian: monodromy of first-order Fuchsian systems and its match with
  two-level scattering matrices for rational pulses.
- codec: the JSON document form of every parameter and data type
  (to_json / from_json).
- cli: command-line entry points wrapping the above.
"""

import types

from .algebra import (
    BIT_FLIP,
    CNOT,
    EYE2,
    HADAMARD,
    NOT_GATE,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    SchmidtDecomposition,
    entanglement_verdict,
    gate_distance,
    kron,
    operator_schmidt,
    phase_gate,
    su11_to_su2,
    tau,
)
from .codec import from_json, to_json
from .direct1d import (
    BoundState,
    LorentzianSum,
    PotentialSpec,
    ScatterCoeffs,
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
from .dispersion import (
    GateTarget,
    ReflectionData,
    build_scattering_data,
    principal_value_integral,
    reconstruct_transmission,
    sample_reflection,
)
from .errors import InfeasibleTargetError, NumericalError
from .fuchsian import (
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
from .glm import (
    RecoveredPotential,
    RecoveredPulse,
    TwoLevelScatteringData,
    recover_potential,
    recover_pulse,
    transmission_a_two_level,
)
from .twolevel import (
    DipoleParams,
    LorentzianPulse,
    LorentzianPulseSum,
    PulseEnvelope,
    PulseSpec,
    RectangularPulse,
    TabulatedPulse,
    dipole_hamiltonian,
    f_matrix,
    rect_pulse_smatrix,
    scattering_matrix,
    scattering_scan,
)

# every public name bound above, submodules aside
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]

__version__ = "0.1.0"
