"""JSON codec: property round trips for every serializable type, the document
forms older writers produced, the one field rule every document type runs
(with the sign rule of its Positive fields and the finiteness rule of its
arrays), and a fuzz over whole documents."""

import copy
import dataclasses
import functools
import json
import typing

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from scattergate import twolevel
from scattergate.cli import main
from scattergate.codec import Document, Positive, from_json, to_json
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
from scattergate.glm import (
    MarchenkoKernel,
    RecoveredPotential,
    RecoveredPulse,
    TwoLevelScatteringData,
)
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
from test_golden import instances

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


pulse_specs = st.builds(PulseSpec, envelopes, reals)


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
    pulse_specs,
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
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc
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
                                 "window": [-50.0, 50.0]})
    assert spec.detuning == 0.0 and "window" not in to_json(spec)
    assert from_json(SechSquared, {"eta": 2.0}).center == 0.0


def test_complex_scalars_are_written_as_float_pairs():
    doc = to_json(GateTarget(k=1.0, t=1, r=0))
    assert doc["t"] == [1.0, 0.0] and doc["r"] == [0.0, 0.0]
    assert all(type(v) is float for v in doc["t"] + doc["r"])
    assert json.dumps(doc) == '{"k": 1.0, "t": [1.0, 0.0], "r": [0.0, 0.0]}'


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


def test_huge_gate_target_rejected_without_overflow():
    # |t|^2 overflows a float beyond 1e154; the check must still say ValueError
    for t, r in ((1.3e154, 0.8j), (0.6, 1e200)):
        with pytest.raises(ValueError, match="unitarity"):
            GateTarget(k=1.0, t=t, r=r)


def test_nan_smatrix_fails_the_su2_gate(monkeypatch):
    # a finite core between NaN tail moments: the gate, not the span check, refuses
    tails = twolevel._lorentzian_tails
    monkeypatch.setattr(twolevel, "_lorentzian_tails",
                        lambda terms, delta: (tails(terms, delta)[0], complex("nan"), complex("nan")))
    with pytest.raises(NumericalError, match="SU\\(2\\)"):
        scattering_matrix(PulseSpec(LorentzianPulseSum(terms=((1.0, 0.1),))))


# ---------------------------------------------------------------------------
# the field rule: every document type, every scalar field


def document_types():
    """Every dataclass below codec.Document, found from the base down."""
    found, todo = set(), [Document]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if dataclasses.is_dataclass(cls):
            found.add(cls)
    return sorted(found, key=lambda cls: cls.__name__)


EXAMPLES = {type(obj): obj for _, obj in instances()}
EXAMPLES[BoundState] = BoundState(eta=1.5, norming=0.75)
EXAMPLES[GateTarget] = GateTarget(k=1.0, t=0.6, r=0.8j)

SCALARS = (float, complex, int, bool)
INEXACT = {float: "1", complex: "1", int: 1.5, bool: "false"}


def test_every_document_type_has_an_example():
    assert set(document_types()) == set(EXAMPLES)


def _leaf(hint):
    # the element hint under any tuple nesting
    while typing.get_origin(hint) is tuple:
        hint = typing.get_args(hint)[0]
    return hint


def _set_first(value, hint, bad):
    # value (a field value or its document form) with its first scalar set to bad
    if typing.get_origin(hint) is tuple:
        return [_set_first(value[0], typing.get_args(hint)[0], bad), *value[1:]]
    return bad


def scalar_fields():
    for cls in document_types():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            leaf = _leaf(hints[f.name])
            if leaf in SCALARS:
                for label, bad in (("nan", float("nan")), ("inf", float("inf")),
                                   ("-inf", float("-inf")), ("inexact", INEXACT[leaf])):
                    yield pytest.param(cls, f.name, hints[f.name], bad,
                                       id=f"{cls.__name__}.{f.name}={label}")


@pytest.mark.parametrize("cls, name, hint, bad", list(scalar_fields()))
def test_field_rule_refuses_and_names_the_field(cls, name, hint, bad):
    obj = EXAMPLES[cls]
    with pytest.raises(ValueError, match=f"^{name}: "):
        dataclasses.replace(obj, **{name: _set_first(getattr(obj, name), hint, bad)})
    doc = to_json(obj)
    doc[name] = _set_first(doc[name], hint, bad)
    with pytest.raises(ValueError, match=f"^{name}: "):
        from_json(cls, doc)


def test_exact_values_are_kept_converted():
    loop = CircleLoop(center=0, radius=2, orientation=-1.0, on_contour=0)
    assert [type(v) for v in (loop.center, loop.radius, loop.orientation, loop.on_contour)] \
        == [complex, float, int, bool]
    assert LorentzianSum([[1, np.float64(0.5)]]).pairs == ((1.0, 0.5),)
    assert type(LorentzianSum([[1, 2]]).pairs[0][1]) is float


# each was read one way by from_json and built another way by the constructor
DISAGREEMENTS = {
    "pair of three": lambda: from_json(
        PotentialSpec, {"variant": "lorentzian_sum", "pairs": [[1, 0.1, 99]]}),
    "centre of three": lambda: from_json(
        Loop, {"kind": "circle", "center": [0, 0.5, 7], "radius": 1.0}),
    "string boolean": lambda: from_json(
        Loop, {"kind": "circle", "center": [0, 0], "radius": 1.0, "on_contour": "false"}),
    "fractional orientation read": lambda: from_json(
        Loop, {"kind": "circle", "center": [0, 0], "radius": 1.0, "orientation": 1.9}),
    "fractional orientation built": lambda: CircleLoop(center=0.0, radius=1.0, orientation=-1.5),
    "complex norming": lambda: BoundState(1.0, 1j),
    "string eta built": lambda: SechSquared(eta="1"),
    "string eta read": lambda: from_json(PotentialSpec, {"variant": "sech_squared", "eta": "1"}),
}


@pytest.mark.parametrize("make", DISAGREEMENTS.values(), ids=DISAGREEMENTS.keys())
def test_reader_and_constructor_refuse_alike(make):
    with pytest.raises(ValueError):
        make()


# booleans and strings are not numbers, in scalars, pairs and arrays alike;
# each case names the field it refuses
TABLE = {"variant": "tabulated", "x": [-1, 0, 1, 2]}
CIRCLE = {"kind": "circle", "center": [0, 0], "radius": 1.0}
NOT_NUMBERS = {
    "boolean eta read": ("eta", lambda: from_json(
        PotentialSpec, {"variant": "sech_squared", "eta": True})),
    "boolean eta built": ("eta", lambda: SechSquared(eta=True)),
    "boolean orientation read": ("orientation", lambda: from_json(
        Loop, {**CIRCLE, "orientation": True})),
    "boolean orientation built": ("orientation", lambda: CircleLoop(0.0, 1.0, orientation=True)),
    "boolean radius read": ("radius", lambda: from_json(Loop, {**CIRCLE, "radius": True})),
    "boolean radius built": ("radius", lambda: CircleLoop(0.0, np.True_)),
    "boolean in a pair": ("center", lambda: from_json(Loop, {**CIRCLE, "center": [True, 0]})),
    "boolean in samples read": ("q", lambda: from_json(
        PotentialSpec, {**TABLE, "q": [0, True, 1, 0]})),
    "boolean samples built": ("q", lambda: Tabulated(x=[-1, 0, 1, 2], q=[False, True, True, False])),
    "string grid built": ("x", lambda: Tabulated(
        x=["-1", "0", "1", "2"], q=[False, True, True, False])),
    "string grid read": ("x", lambda: from_json(
        PotentialSpec, {**TABLE, "x": ["-1", "0", "1", "2"], "q": [False, True, True, False]})),
    "boolean residue built": ("residues", lambda: FuchsianSystem(
        poles=(0.0,), residues=([[True, 0], [0, 1]],))),
    "boolean residue read": ("residues", lambda: from_json(
        FuchsianSystem, {"poles": [[0, 0]], "residues": [[[[True, 0], [0, 0]], [[0, 0], [1, 0]]]]})),
    "complex samples in a real table built": ("q", lambda: Tabulated(x=[-1, 0, 1, 2], q=[0, 1j, 0, 0])),
    "complex samples in a real table read": ("q", lambda: from_json(
        PotentialSpec, {**TABLE, "re_q": [0, 1, 0, 0], "im_q": [0, 1, 0, 0]})),
    "halves of different lengths": ("E", lambda: from_json(
        PulseSpec, {"t": [0, 1, 2, 3], "re_E": [0, 1, 1, 0], "im_E": [0, 1, 0]})),
    "halves that broadcast": ("E", lambda: from_json(
        PulseSpec, {"t": [0, 1, 2, 3], "re_E": [0, 1, 1, 0], "im_E": [0]})),
    "int beyond the float range": ("q", lambda: from_json(
        PotentialSpec, {**TABLE, "q": [0, 10**400, 0, 0]})),
}


@pytest.mark.parametrize("field, make", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
def test_only_numbers_are_numbers(field, make):
    with pytest.raises(ValueError, match=f"^{field}: "):
        make()


def test_refused_sample_array_exits_2(tmp_path, capsys):
    path = _write(tmp_path / "table.json", {**TABLE, "q": [0, True, 1, 0]})
    code = main(["direct", "--potential", path, "--n", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["message"] == "ValueError: q: True is not a finite real number"


# ---------------------------------------------------------------------------
# the array rule: every array field, found from the type hints


def array_fields():
    """(cls, field name) of every array field (an ndarray or a tuple of them) of
    every document type and of the Marchenko kernel table."""
    for cls in [*document_types(), MarchenkoKernel]:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if np.ndarray in (hints[f.name], *typing.get_args(hints[f.name])):
                yield cls, f.name


ARRAY_EXAMPLES = {**EXAMPLES, MarchenkoKernel: MarchenkoKernel(
    z=np.linspace(0.0, 2.0, 5), refl=np.array([1.0, 0.5, 0.25, 0.125, 0.0]))}


def test_array_fields_are_found():
    found = {f"{cls.__name__}.{name}" for cls, name in array_fields()}
    assert found >= {"Tabulated.x", "Tabulated.q", "TabulatedPulse.t", "TabulatedPulse.E",
                     "ReflectionData.k", "ReflectionData.R", "TwoLevelScatteringData.zeta",
                     "TwoLevelScatteringData.r", "FuchsianSystem.residues",
                     "MarchenkoKernel.z", "MarchenkoKernel.refl"}


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(list(array_fields())), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       data=st.data())
def test_non_finite_array_entry_names_the_field(case, bad, data):
    cls, name = case
    obj = ARRAY_EXAMPLES[cls]
    value = getattr(obj, name)
    arrays = list(value) if isinstance(value, tuple) else [value]
    j = data.draw(st.integers(0, len(arrays) - 1), label="array")
    i = data.draw(st.integers(0, arrays[j].size - 1), label="entry")
    hit = arrays[j].copy()
    if np.iscomplexobj(hit) and data.draw(st.booleans(), label="imaginary part"):
        hit.flat[i] = complex(hit.flat[i].real, bad)
    else:
        hit.flat[i] = bad
    arrays[j] = hit
    new = tuple(arrays) if isinstance(value, tuple) else hit
    message = f"^{name}: .* is not a finite (real|complex) number$"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(obj, **{name: new})
    if issubclass(cls, Document):
        # the document of obj with the bad entry, written around the constructor
        unchecked = copy.copy(obj)
        object.__setattr__(unchecked, name, new)
        with pytest.raises(ValueError, match=message):
            from_json(cls, to_json(unchecked))


def test_boolean_fields_take_booleans_and_0_1():
    for value in (True, False, 0, 1, np.True_):
        loop = from_json(Loop, {**CIRCLE, "on_contour": value})
        assert loop.on_contour is bool(value)
        assert CircleLoop(0.0, 1.0, on_contour=value).on_contour is bool(value)


def test_bound_state_and_gate_target_are_documents():
    for obj in (EXAMPLES[BoundState], EXAMPLES[GateTarget]):
        assert obj.to_json() == to_json(obj)
        assert from_json(type(obj), obj.to_json()) == obj


# ---------------------------------------------------------------------------
# the sign rule: every Positive field, found from the type hints


def _positive_paths(hint, path=()):
    # index paths to the Positive scalars under a field hint; the first item
    # of a variable-length tuple stands for every item
    if hint == Positive:
        yield path
    elif typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        for i, item in enumerate(args[:1] if args[-1] is Ellipsis else args):
            yield from _positive_paths(item, (*path, i))


def _set_at(value, path, new):
    # value (a field value or its document form) with the scalar at path set to new
    if not path:
        return new
    i = path[0]
    return [*value[:i], _set_at(value[i], path[1:], new), *value[i + 1:]]


def _get_at(value, path):
    for i in path:
        value = value[i]
    return value


def positive_fields():
    """(cls, field name, index path) of every Positive scalar of every document type."""
    for cls in document_types():
        hints = typing.get_type_hints(cls, include_extras=True)
        for f in dataclasses.fields(cls):
            for path in _positive_paths(hints[f.name]):
                yield cls, f.name, path


def test_widths_rates_lengths_radii_and_durations_are_positive():
    found = {f"{cls.__name__}.{name}" for cls, name, _ in positive_fields()}
    assert found >= {"SquareWell.length", "SechSquared.eta", "LorentzianSum.pairs",
                     "BoundState.eta", "LorentzianPulse.a", "LorentzianPulseSum.terms",
                     "RectangularPulse.half_width", "DipoleParams.T", "CircleLoop.radius",
                     "GateTarget.k"}


NOT_POSITIVE = {"0": 0.0, "-0": -0.0, "-1": -1.0, "nan": float("nan"),
                "inf": float("inf"), "-inf": float("-inf")}


@pytest.mark.parametrize("cls, name, path, bad", [
    pytest.param(cls, name, path, bad, id=f"{cls.__name__}.{name}={label}")
    for cls, name, path in positive_fields() for label, bad in NOT_POSITIVE.items()])
def test_positive_field_refuses_and_names_the_field(cls, name, path, bad):
    message = f"^{name}: {bad!r} is not positive$" if np.isfinite(bad) else f"^{name}: .* finite"
    obj = EXAMPLES[cls]
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(obj, **{name: _set_at(getattr(obj, name), path, bad)})
    doc = to_json(obj)
    doc[name] = _set_at(doc[name], path, bad)
    with pytest.raises(ValueError, match=message):
        from_json(cls, doc)


# fields whose least subnormal overflows a derived value: the window 40 / eta
OVERFLOWS_AT_SUBNORMAL = {(SechSquared, "eta")}


@pytest.mark.parametrize("cls, name, path", [
    pytest.param(cls, name, path, id=f"{cls.__name__}.{name}") for cls, name, path in positive_fields()])
def test_positive_field_takes_the_least_subnormal(cls, name, path):
    obj = EXAMPLES[cls]
    doc = to_json(obj)
    doc[name] = _set_at(doc[name], path, 5e-324)
    if (cls, name) in OVERFLOWS_AT_SUBNORMAL:
        with pytest.raises(ValueError, match="^window: -inf is not a finite float$"):
            dataclasses.replace(obj, **{name: _set_at(getattr(obj, name), path, 5e-324)})
        with pytest.raises(ValueError, match="^window: -inf is not a finite float$"):
            from_json(cls, doc)
        return
    built = dataclasses.replace(obj, **{name: _set_at(getattr(obj, name), path, 5e-324)})
    for got in (built, from_json(cls, doc)):
        assert _get_at(getattr(got, name), path) == 5e-324


# ---------------------------------------------------------------------------
# whole-document fuzz: each document builds exactly, or is refused with exit 2

DROP = object()
numbers = st.one_of(st.floats(), st.integers(-2, 2))
junk = st.one_of(st.text(max_size=3), st.booleans(), st.none(), st.lists(numbers, max_size=4))


@functools.cache
def _values(hint):
    # document values for a field hint, well formed or not
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        size = (0, 3) if args[-1] is Ellipsis else (len(args) - 1, len(args) + 1)
        return st.one_of(st.lists(_values(args[0]), min_size=size[0], max_size=size[1]), junk)
    if hint is complex:
        return st.one_of(st.lists(numbers, min_size=1, max_size=3), numbers, junk)
    if isinstance(hint, type) and issubclass(hint, Document):
        variants = [cls for cls in document_types() if issubclass(cls, hint)]
        return st.one_of(st.sampled_from(variants).flatmap(_documents), junk)
    if hint is np.ndarray:
        return junk
    return st.one_of(numbers, junk)


@functools.cache
def _documents(cls):
    # the example's document with up to two fields dropped or replaced
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    chosen = st.lists(st.sampled_from(names), max_size=2, unique=True) if names else st.just([])
    edits = chosen.flatmap(
        lambda chosen: st.fixed_dictionaries(
            {name: st.one_of(st.just(DROP), _values(hints[name])) for name in chosen}))

    def apply(edit):
        doc = to_json(EXAMPLES[cls])
        for name, value in edit.items():
            for key in (name, "re_" + name, "im_" + name):
                doc.pop(key, None)
            if value is not DROP:
                doc[name] = value
        return doc

    return edits.map(apply)


def _assert_exact(hint, value):
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        assert type(value) is tuple
        assert args[-1] is Ellipsis or len(value) == len(args)
        for v in value:
            _assert_exact(args[0], v)
    elif hint in SCALARS:
        assert type(value) is hint and np.isfinite(value)
    elif dataclasses.is_dataclass(value):
        hints = typing.get_type_hints(type(value))
        for f in dataclasses.fields(value):
            _assert_exact(hints[f.name], getattr(value, f.name))


# the subcommand and flag that read each type's document
CLI_READERS = {
    **{cls: ("direct", "--potential") for cls in (Zero, SquareWell, SechSquared, LorentzianSum, Tabulated)},
    **{cls: ("twolevel", "--pulse") for cls in (PulseSpec, LorentzianPulse, LorentzianPulseSum,
                                                RectangularPulse, TabulatedPulse)},
    ReflectionData: ("inverse", "--data"),
    TwoLevelScatteringData: ("inverse", "--data"),
    DipoleParams: ("entangle", "--params"),
    FuchsianSystem: ("monodromy", "--system"),
    CircleLoop: ("monodromy", "--loop"),
    PolylineLoop: ("monodromy", "--loop"),
}


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


def _cli_argv(tmp_path, cls, doc):
    # the command line that reads doc as a cls, with an example partner document
    sub, flag = CLI_READERS[cls]
    argv = [sub, flag, _write(tmp_path / "doc.json", doc)]
    if sub == "monodromy":
        partner = FuchsianSystem if flag == "--loop" else CircleLoop
        other = "--system" if flag == "--loop" else "--loop"
        argv += [other, _write(tmp_path / "other.json", to_json(EXAMPLES[partner]))]
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=st.sampled_from(document_types()).flatmap(
    lambda cls: st.tuples(st.just(cls), _documents(cls))))
def test_whole_documents_build_exactly_or_exit_2(case, tmp_path, capsys, budget):
    cls, doc = case
    try:
        obj = from_json(cls, doc)
    except (ValueError, TypeError, KeyError):
        pass
    else:
        _assert_exact(cls, obj)
        json.dumps(to_json(obj), allow_nan=False)
        return
    if cls not in CLI_READERS:
        return
    code = main(_cli_argv(tmp_path, cls, doc))
    out, err = capsys.readouterr()
    assert (code, out, len(err.splitlines())) == (2, "", 1), err


@pytest.mark.parametrize("cls, name, path", [
    pytest.param(cls, name, path, id=f"{cls.__name__}.{name}")
    for cls, name, path in positive_fields() if cls in CLI_READERS])
def test_zero_positive_field_exits_2_naming_it(cls, name, path, tmp_path, capsys):
    doc = to_json(EXAMPLES[cls])
    doc[name] = _set_at(doc[name], path, 0)
    code = main(_cli_argv(tmp_path, cls, doc))
    out, err = capsys.readouterr()
    assert (code, out, len(err.splitlines())) == (2, "", 1), err
    assert json.loads(err)["error"]["message"] == f"ValueError: {name}: 0.0 is not positive"
