"""JSON codec: property round trips for every serializable type, the document
forms older writers produced, and rejection of non-finite parameters."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from scattergate.codec import from_json, to_json
from scattergate.direct1d import (
    BoundState,
    LorentzianSum,
    PotentialSpec,
    SechSquared,
    SquareWell,
    Tabulated,
    Zero,
)
from scattergate.dispersion import GateTarget, ReflectionData
from scattergate.errors import NumericalError
from scattergate.fuchsian import CircleLoop, FuchsianSystem, Loop, PolylineLoop
from scattergate.glm import RecoveredPotential, RecoveredPulse, TwoLevelScatteringData
from scattergate.twolevel import (
    DipoleParams,
    LorentzianPulse,
    LorentzianPulseSum,
    PulseEnvelope,
    PulseSpec,
    RectangularPulse,
    TabulatedPulse,
    scattering_matrix,
)

reals = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
positive = st.floats(min_value=1e-2, max_value=1e2)
complexes = st.builds(complex, reals, reals)
small_complexes = st.builds(
    lambda m, phi: m * np.exp(1j * phi),
    st.floats(min_value=0.0, max_value=0.9),
    st.floats(min_value=0.0, max_value=6.28),
)


@st.composite
def grids(draw, min_size=4, max_size=9, lo=-5.0):
    steps = draw(st.lists(st.floats(min_value=0.05, max_value=2.0),
                          min_size=min_size - 1, max_size=max_size - 1))
    return lo + np.concatenate([[0.0], np.cumsum(steps)])


@st.composite
def decayed(draw, values, grid):
    # finite interior values, zero at both ends of the grid
    inner = draw(st.lists(values, min_size=grid.size - 2, max_size=grid.size - 2))
    return np.array([0.0, *inner, 0.0])


@st.composite
def tables(draw, cls, values):
    x = draw(grids())
    return cls(x, draw(decayed(values, x)))


pairs = st.lists(st.tuples(positive, st.floats(min_value=-5.0, max_value=5.0)), max_size=3)

potentials = st.one_of(
    st.just(Zero()),
    st.builds(SquareWell, reals, reals, positive),
    st.builds(SechSquared, positive, reals),
    st.builds(lambda p: LorentzianSum(tuple(p)), pairs),
    tables(Tabulated, reals),
)
envelopes = st.one_of(
    st.builds(LorentzianPulse, positive, st.floats(min_value=-5.0, max_value=5.0)),
    st.builds(lambda t: LorentzianPulseSum(tuple(t)), pairs),
    st.builds(RectangularPulse, complexes, positive),
    tables(TabulatedPulse, complexes),
)


@st.composite
def pulse_specs(draw):
    env = draw(envelopes)
    window = None
    if draw(st.booleans()):
        lo, hi = env.window
        window = (lo - draw(positive), hi + draw(positive))
    return PulseSpec(env, detuning=draw(reals), window=window)


@st.composite
def reflection_data(draw):
    k = draw(grids(min_size=3))
    assume(k[0] < 0.0 < k[-1])
    states = draw(st.lists(st.builds(BoundState, positive, reals), max_size=2))
    return ReflectionData(k, draw(decayed(small_complexes, k)), tuple(states))


@st.composite
def two_level_data(draw):
    zeta = draw(grids(min_size=2))
    poles = draw(st.lists(st.builds(complex, reals, positive), max_size=2))
    norming = draw(st.lists(complexes, min_size=len(poles), max_size=len(poles)))
    return TwoLevelScatteringData(zeta, draw(decayed(complexes, zeta)), tuple(poles), tuple(norming))


@st.composite
def fuchsian_systems(draw):
    poles = draw(st.lists(complexes, min_size=1, max_size=3))
    assume(all(abs(p - q) > 1e-6 for i, p in enumerate(poles) for q in poles[i + 1:]))
    residues = [np.array(draw(st.lists(complexes, min_size=4, max_size=4))).reshape(2, 2)
                for _ in poles]
    return FuchsianSystem(tuple(poles), tuple(residues))


@st.composite
def polylines(draw):
    pts = draw(st.lists(complexes, min_size=3, max_size=5, unique=True))
    return PolylineLoop((*pts, pts[0]), draw(st.booleans()))


documents = st.one_of(
    potentials,
    envelopes,
    pulse_specs(),
    reflection_data(),
    two_level_data(),
    tables(RecoveredPotential, reals),
    tables(RecoveredPulse, complexes),
    st.builds(DipoleParams, complexes, complexes, reals, reals, reals, reals,
              complexes, reals, positive),
    fuchsian_systems(),
    st.builds(CircleLoop, complexes, positive, st.sampled_from((1, -1)), st.booleans()),
    polylines(),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(documents)
def test_round_trip_every_type(obj):
    doc = to_json(obj)
    assert doc == obj.to_json()
    assert json.loads(json.dumps(doc)) == doc
    back = from_json(type(obj), doc)
    assert type(back) is type(obj)
    assert to_json(back) == doc


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.tuples(st.just(PotentialSpec), potentials),
    st.tuples(st.just(PulseEnvelope), envelopes),
    st.tuples(st.just(Loop), st.one_of(polylines(), st.builds(CircleLoop, complexes, positive))),
))
def test_base_reads_the_named_variant(case):
    base, obj = case
    back = from_json(base, to_json(obj))
    assert type(back) is type(obj)
    assert to_json(back) == to_json(obj)


@settings(max_examples=50, deadline=None)
@given(tables(Tabulated, reals))
def test_bare_sample_table_reads_as_tabulated_potential(pot):
    back = from_json(PotentialSpec, {"x": pot.x.tolist(), "q": pot.q.tolist()})
    assert isinstance(back, Tabulated)
    assert to_json(back) == to_json(pot)


@settings(max_examples=50, deadline=None)
@given(envelopes)
def test_bare_envelope_reads_as_pulse_spec(env):
    spec = from_json(PulseSpec, to_json(env))
    assert to_json(spec) == to_json(PulseSpec(env))


@settings(max_examples=50, deadline=None)
@given(tables(RecoveredPulse, complexes))
def test_recovered_pulse_table_reads_as_pulse_spec(rec):
    doc = to_json(rec)
    assert set(doc) == {"t", "re_E", "im_E"}
    spec = from_json(PulseSpec, doc)
    assert isinstance(spec.envelope, TabulatedPulse)
    assert to_json(spec) == to_json(PulseSpec(TabulatedPulse(rec.t, rec.E)))


def test_scalar_complex_fields_and_missing_optional_keys():
    doc = {"d_A": 0.5, "d_B": [0.25, -1.0], "W_plus_A": 1.0, "W_minus_A": -1.0,
           "W_plus_B": 0.5, "W_minus_B": -0.5}
    p = from_json(DipoleParams, doc)
    assert (p.d_A, p.d_B, p.x, p.y, p.T) == (0.5, 0.25 - 1.0j, 0.0, 0.0, 1.0)
    loop = from_json(Loop, {"kind": "circle", "center": [0.0, 1.0], "radius": 2.0})
    assert (loop.orientation, loop.on_contour) == (1, False)
    data = from_json(ReflectionData, {"k": [-1.0, 0.0, 1.0], "re_R": [0, 0.5, 0], "im_R": [0, 0, 0]})
    assert data.bound_states == ()
    spec = from_json(PulseSpec, {"envelope": {"variant": "lorentzian", "a": 1.0, "b": 0.5},
                                 "window": []})
    assert spec.window == spec.envelope.window and spec.detuning == 0.0
    assert from_json(SechSquared, {"eta": 2.0}).center == 0.0


def test_malformed_documents():
    with pytest.raises(ValueError, match="potential variant"):
        from_json(PotentialSpec, {"q": [1.0, 2.0]})
    with pytest.raises(KeyError):
        from_json(PotentialSpec, {"variant": "square_well", "q0": 1.0})
    with pytest.raises(TypeError):
        from_json(Loop, [1.0, 2.0])
    with pytest.raises(ValueError, match="pairs"):
        from_json(FuchsianSystem, {"poles": [[0.0, 0.0]], "residues": [[[[1.0]] * 2] * 2]})


NON_FINITE = [
    (PotentialSpec, {"variant": "square_well", "q0": float("nan"), "x0": 0.0, "length": 1.0}),
    (PotentialSpec, {"variant": "square_well", "q0": 1.0, "x0": float("-inf"), "length": 1.0}),
    (PotentialSpec, {"variant": "sech_squared", "eta": float("inf")}),
    (PotentialSpec, {"variant": "sech_squared", "eta": 1.0, "center": float("nan")}),
    (PotentialSpec, {"variant": "lorentzian_sum", "pairs": [[1.0, float("nan")]]}),
    (PotentialSpec, {"variant": "lorentzian_sum", "pairs": [[float("inf"), 1.0]]}),
    (PulseEnvelope, {"variant": "lorentzian_sum", "terms": [[1.0, float("nan")]]}),
    (PulseSpec, {"variant": "lorentzian_sum", "terms": [[float("inf"), 0.5]]}),
]


@pytest.mark.parametrize("cls, doc", NON_FINITE)
def test_non_finite_parameters_rejected(cls, doc):
    with pytest.raises(ValueError, match="finite"):
        from_json(cls, doc)


def test_non_finite_constructor_arguments_rejected():
    nan, inf = float("nan"), float("inf")
    for make in (lambda: SquareWell(q0=nan, x0=0.0, length=1.0),
                 lambda: SechSquared(eta=inf),
                 lambda: LorentzianSum(pairs=((1.0, nan),)),
                 lambda: LorentzianPulseSum(terms=((inf, 0.5),))):
        with pytest.raises(ValueError, match="finite"):
            make()


def test_non_finite_gate_target_rejected():
    s2 = 2.0 ** -0.5
    for k, t, r in ((float("nan"), s2, s2), (1.0, s2, float("nan")), (1.0, complex(s2, np.inf), s2)):
        with pytest.raises(ValueError, match="finite"):
            GateTarget(k=k, t=t, r=r)


def test_nan_smatrix_fails_the_su2_gate():
    env = LorentzianPulseSum(terms=((1.0, 0.1),))
    spec = PulseSpec(env)
    # bypass the constructor check to reach the gate with NaN tail moments
    object.__setattr__(env, "terms", ((1.0, float("nan")),))
    with pytest.raises(NumericalError, match="SU\\(2\\)"):
        scattering_matrix(spec)
