"""Golden documents: the exact bytes of every JSON document form.

Each serializable type is pinned by one instance's ``to_json`` output, and
each subcommand by its standard output on a small fixed input.  A change to
the document format, to key order, or to how a number is written fails here.
"""

import json
import os

import numpy as np
import pytest

from scattergate.algebra import SIGMA3
from scattergate.cli import main
from scattergate.codec import from_json
from scattergate.direct1d import (
    BoundState,
    LorentzianSum,
    SechSquared,
    SquareWell,
    Tabulated,
    Zero,
)
from scattergate.dispersion import ReflectionData
from scattergate.fuchsian import CircleLoop, FuchsianSystem, Loop, PolylineLoop
from scattergate.glm import RecoveredPotential, RecoveredPulse, TwoLevelScatteringData
from scattergate.twolevel import (
    DipoleParams,
    LorentzianPulse,
    LorentzianPulseSum,
    PulseSpec,
    RectangularPulse,
    TabulatedPulse,
)


def instances():
    x = np.array([-1.5, -0.5, 0.5, 1.5])
    return [
        ("Zero", Zero()),
        ("SquareWell", SquareWell(q0=-3.0, x0=0.5, length=1.25)),
        ("SechSquared", SechSquared(eta=0.5, center=-0.25)),
        ("LorentzianSum", LorentzianSum(pairs=((1.0, 0.5), (2.0, -0.125)))),
        ("Tabulated", Tabulated(x=x, q=np.array([0.0, 0.75, -0.25, 0.0]))),
        ("ReflectionData", ReflectionData(
            k=np.array([-2.0, -1.0, 0.0, 1.0, 2.0]),
            R=np.array([0.0, 0.25 - 0.5j, 0.5, 0.25 + 0.5j, 0.0]),
            bound_states=(BoundState(eta=1.5, norming=0.75),),
        )),
        ("TwoLevelScatteringData", TwoLevelScatteringData(
            zeta=np.array([-2.0, -1.0, 0.0, 1.0, 2.0]),
            r=np.array([0.0, 0.25 + 0.5j, 0.5, -0.25j, 0.0]),
            poles=(1j, 0.5 + 2j),
            norming=(-1j, 0.25),
        )),
        ("RecoveredPotential", RecoveredPotential(
            x=x, q=np.array([0.0, 0.75, -0.25, 0.0]), check_decay=False)),
        ("RecoveredPulse", RecoveredPulse(
            t=x, E=np.array([0.0, 0.75j, 0.5 - 0.25j, 0.0]), check_decay=False)),
        ("LorentzianPulse", LorentzianPulse(a=1.0, b=0.25)),
        ("LorentzianPulseSum", LorentzianPulseSum(terms=((1.0, 0.125), (0.5, -0.25)))),
        ("RectangularPulse", RectangularPulse(x=0.5 - 0.25j, half_width=1.5)),
        ("TabulatedPulse", TabulatedPulse(t=x, E=np.array([0.0, 1.0 + 0.5j, -0.25j, 0.0]))),
        ("PulseSpec", PulseSpec(envelope=LorentzianPulse(a=2.0, b=0.5), detuning=-0.75)),
        ("DipoleParams", DipoleParams(
            d_A=0.5 + 0.25j, d_B=-1.0j, W_plus_A=1.0, W_minus_A=-1.0,
            W_plus_B=0.5, W_minus_B=-0.5, x=0.25, y=0.125, T=2.0,
        )),
        ("FuchsianSystem", FuchsianSystem(
            poles=(0.5j, -0.25),
            residues=(0.5 * SIGMA3, np.array([[0.0, 1.0j], [0.5, 0.0]])),
        )),
        ("CircleLoop", CircleLoop(center=0.5j, radius=0.5, orientation=-1)),
        ("PolylineLoop", PolylineLoop(points=(0.0, 1.0, 1.0 + 1.0j, 0.0), on_contour=True)),
    ]


def _write(tmp, name, doc):
    path = os.path.join(tmp, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def cli_cases(tmp):
    k = np.linspace(-5.0, 5.0, 21).tolist()
    well = _write(tmp, "well", {"variant": "square_well", "q0": 2.0, "x0": 0.0, "length": 1.5})
    soliton = _write(tmp, "soliton", {
        "k": k, "re_R": [0.0] * 21, "im_R": [0.0] * 21,
        "bound_states": [{"eta": 1.0, "norming": 1.0}],
    })
    zeta = np.linspace(-4.0, 4.0, 17).tolist()
    pulse_data = _write(tmp, "pulse_data", {
        "zeta": zeta, "re_r": [0.0] * 17, "im_r": [0.0] * 17,
        "poles": [[0.0, 1.0]], "norming": [[0.0, -1.0]],
    })
    pulse = _write(tmp, "pulse", {"variant": "lorentzian", "a": 1.0, "b": 0.25})
    dipole = _write(tmp, "dipole", {
        "d_A": [1.0, 0.0], "d_B": 0.5, "W_plus_A": 1.0, "W_minus_A": -1.0,
        "W_plus_B": 0.5, "W_minus_B": -0.5, "x": [0.25, 0.0], "y": 0.5, "T": 1.0,
    })
    system = _write(tmp, "system", {
        "poles": [[0.0, 0.0]],
        "residues": [[[[0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.25, 0.0]]]],
    })
    loop = _write(tmp, "loop", {"kind": "circle", "center": [0.0, 0.0], "radius": 0.7})
    return [
        ("direct", ["direct", "--potential", well, "--kmin", "0.5", "--kmax", "2", "--n", "3"]),
        ("inverse potential", ["inverse", "--data", soliton, "--kmin", "-3", "--kmax", "3",
                               "--n", "5", "--keep-ends"]),
        ("inverse pulse", ["inverse", "--data", pulse_data, "--kmin", "-2", "--kmax", "2",
                           "--n", "5", "--keep-ends"]),
        ("twolevel", ["twolevel", "--pulse", pulse, "--zeta", "0.5"]),
        ("entangle", ["entangle", "--params", dipole]),
        ("monodromy", ["monodromy", "--system", system, "--loop", loop]),
    ]


GOLDEN_DOCS = {
    "Zero": '{"variant": "zero", "window": [0.0, 0.0]}',
    "SquareWell": (
        '{"variant": "square_well", "q0": -3.0, "x0": 0.5, "length": 1.25, '
        '"window": [0.5, 1.75]}'
    ),
    "SechSquared": (
        '{"variant": "sech_squared", "eta": 0.5, "center": -0.25, "window": [-80.25, '
        '79.75]}'
    ),
    "LorentzianSum": (
        '{"variant": "lorentzian_sum", "pairs": [[1.0, 0.5], [2.0, -0.125]], '
        '"window": [-122474.48713915891, 122474.48713915891]}'
    ),
    "Tabulated": (
        '{"variant": "tabulated", "x": [-1.5, -0.5, 0.5, 1.5], "q": [0.0, 0.75, '
        '-0.25, 0.0], "window": [-1.5, 1.5]}'
    ),
    "ReflectionData": (
        '{"k": [-2.0, -1.0, 0.0, 1.0, 2.0], "re_R": [0.0, 0.25, 0.5, 0.25, 0.0], '
        '"im_R": [0.0, -0.5, 0.0, 0.5, 0.0], "bound_states": [{"eta": 1.5, '
        '"norming": 0.75}]}'
    ),
    "TwoLevelScatteringData": (
        '{"zeta": [-2.0, -1.0, 0.0, 1.0, 2.0], "re_r": [0.0, 0.25, 0.5, -0.0, 0.0], '
        '"im_r": [0.0, 0.5, 0.0, -0.25, 0.0], "poles": [[0.0, 1.0], [0.5, 2.0]], '
        '"norming": [[-0.0, -1.0], [0.25, 0.0]]}'
    ),
    "RecoveredPotential": '{"x": [-1.5, -0.5, 0.5, 1.5], "q": [0.0, 0.75, -0.25, 0.0]}',
    "RecoveredPulse": (
        '{"t": [-1.5, -0.5, 0.5, 1.5], "re_E": [0.0, 0.0, 0.5, 0.0], "im_E": [0.0, '
        '0.75, -0.25, 0.0]}'
    ),
    "LorentzianPulse": '{"variant": "lorentzian", "a": 1.0, "b": 0.25}',
    "LorentzianPulseSum": '{"variant": "lorentzian_sum", "terms": [[1.0, 0.125], [0.5, -0.25]]}',
    "RectangularPulse": '{"variant": "rectangular", "x": [0.5, -0.25], "half_width": 1.5}',
    "TabulatedPulse": (
        '{"variant": "tabulated", "t": [-1.5, -0.5, 0.5, 1.5], "re_E": [0.0, 1.0, '
        '-0.0, 0.0], "im_E": [0.0, 0.5, -0.25, 0.0]}'
    ),
    "PulseSpec": (
        '{"envelope": {"variant": "lorentzian", "a": 2.0, "b": 0.5}, '
        '"detuning": -0.75}'
    ),
    "DipoleParams": (
        '{"d_A": [0.5, 0.25], "d_B": [-0.0, -1.0], "W_plus_A": 1.0, '
        '"W_minus_A": -1.0, "W_plus_B": 0.5, "W_minus_B": -0.5, "x": [0.25, 0.0], '
        '"y": 0.125, "T": 2.0}'
    ),
    "FuchsianSystem": (
        '{"poles": [[0.0, 0.5], [-0.25, 0.0]], "residues": [[[[0.5, 0.0], [0.0, '
        '0.0]], [[0.0, 0.0], [-0.5, 0.0]]], [[[0.0, 0.0], [0.0, 1.0]], [[0.5, 0.0], '
        '[0.0, 0.0]]]]}'
    ),
    "CircleLoop": (
        '{"kind": "circle", "center": [0.0, 0.5], "radius": 0.5, "orientation": -1, '
        '"on_contour": false}'
    ),
    "PolylineLoop": (
        '{"kind": "polyline", "points": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, '
        '0.0]], "on_contour": true}'
    ),
}

GOLDEN_STDOUT = {
    "direct": (
        'k,re_a,im_a,re_b,im_b,T2,R2\n'
        '0.5,0.42431376775708607,-1.3770333181586962,0.70715313217876619,'
        '0.75907666310928135,0.48163456765961915,0.51836543234037968\n'
        '1.25,0.60173470635317416,-0.80912044894983037,0.12351839989543065,'
        '-0.038778378331121292,0.98351572785632912,0.016484272143674351\n'
        '2,0.779707281228599,-0.63466623196179084,-0.014628006388568031,'
        '0.10261915913980331,0.98936955028485252,0.010630449715140704\n'
    ),
    "inverse potential": (
        '{"subcommand": "inverse", "kind": "potential", "variant": "tabulated", '
        '"x": [-3, -1.5, 0, 1.5, 3], "q": [0.019733376052499807, 0.36143083222157646, '
        '1.9999333112458273, 0.3614308410434669, 0.019733370334263593], '
        '"window": [-3, 3]}\n'
    ),
    "inverse pulse": (
        '{"subcommand": "inverse", "kind": "pulse", "t": [-2, -1, 0, 1, 2], '
        '"re_E": [0, 0, 0, 0, 0], "im_E": [0.073237985182645876, '
        '0.53160444508636273, 1.9999999759195852, 0.53160445743937301, '
        '0.073237986946813091]}\n'
    ),
    "twolevel": (
        '{"subcommand": "twolevel", "S": [[[0.82105435155756035, '
        '-0.35505372281841519], [2.1417256543004664e-17, -0.4469973218053801]], '
        '[[4.0029928704741781e-17, -0.44699732180536977], [0.82105435155756035, '
        '0.35505372281841519]]], "a": [0.82105435155756035, -0.35505372281841519], '
        '"b": [4.0029928704741781e-17, -0.44699732180536977]}\n'
    ),
    "entangle": (
        '{"schmidt_values": [1.9143904405240877, 0.43444210344141071, '
        '0.3730118320886826, 0.085038068588340204], "verdict": "entangling", '
        '"f": [[[0.91437656276450985, -0.12833143221740412], [-0.077917628929344077, '
        '-0.30868686232487591], [-0.061153071610350489, -0.20192718965413342], '
        '[-0.036852135113740789, 0.014677913700671751]], [[-0.077917628929344035, '
        '-0.30868686232487591], [0.8574139375685208, -0.083727652455789059], '
        '[-0.035005459882925472, -0.35832934717872117], [-0.013395805633760496, '
        '-0.16330196914861583]], [[-0.06115307161035051, -0.20192718965413342], '
        '[-0.035005459882925499, -0.35832934717872117], [0.89375085931798071, '
        '0.13942789354449064], [-0.019630056561666609, -0.085113650429068904]], '
        '[[-0.036852135113740782, 0.014677913700671749], [-0.013395805633760499, '
        '-0.16330196914861586], [-0.019630056561666609, -0.085113650429068891], '
        '[0.97514403278742823, 0.11421007380986758]]]}\n'
    ),
    "monodromy": (
        '{"subcommand": "monodromy", "monodromy": [[[-1.7273493399920397e-16, '
        '1.0000000000000009], [0, 0]], [[0, 0], [-1.7273493399920397e-16, '
        '-1.0000000000000009]]], "trace": [-3.4546986799840794e-16, 0]}\n'
    ),
}


@pytest.mark.parametrize("name, obj", instances(), ids=[n for n, _ in instances()])
def test_to_json_bytes(name, obj):
    assert json.dumps(obj.to_json()) == GOLDEN_DOCS[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN_DOCS) == sorted(n for n, _ in instances())


@pytest.mark.parametrize("case", range(6))
def test_cli_stdout_bytes(case, tmp_path, capsys):
    name, argv = cli_cases(str(tmp_path))[case]
    assert main(argv) == 0
    assert capsys.readouterr().out == GOLDEN_STDOUT[name]


def test_legacy_weight_note_is_ignored(tmp_path, capsys):
    # documents written before FuchsianSystem dropped its weight_note field
    argv = dict(cli_cases(str(tmp_path)))["monodromy"]
    path = argv[argv.index("--system") + 1]
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    legacy = dict(doc, weight_note="scalar factor (1/z + i) absorbed by partial fractions")
    assert from_json(FuchsianSystem, legacy).to_json() == from_json(FuchsianSystem, doc).to_json()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(legacy, fh)
    assert main(argv) == 0
    assert capsys.readouterr().out == GOLDEN_STDOUT["monodromy"]


def test_legacy_loop_samples_are_ignored(tmp_path, capsys):
    # loop documents written while the loops carried a samples field
    argv = dict(cli_cases(str(tmp_path)))["monodromy"]
    path = argv[argv.index("--loop") + 1]
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    legacy = dict(doc, samples=32)
    assert from_json(Loop, legacy).to_json() == from_json(Loop, doc).to_json()
    polyline = json.loads(GOLDEN_DOCS["PolylineLoop"])
    assert from_json(Loop, dict(polyline, samples=256)).to_json() == polyline
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(legacy, fh)
    assert main(argv) == 0
    assert capsys.readouterr().out == GOLDEN_STDOUT["monodromy"]
