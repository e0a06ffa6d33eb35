"""Seeded inputs, request lists and oracle checks of the benchmark workloads.

There are two workloads, split by the direction of the problem:
``synthesis`` runs every inverse problem (gate targets to a Marchenko
potential, scattering data to a pulse) and ``forward`` every direct one
(potentials, pulses, Fuchsian systems and dipole gates to their scattering
data).  Each is built from input families (``potential`` and ``pulse``),
and each family draws from its own random stream.

Each workload is a fixed list of requests that one client sends back to back
(a closed loop with no think time).  A request goes through
``scattergate.cli.main`` when a subcommand exposes every parameter it needs,
and is otherwise the public library call that subcommand would make.

Seed 0 reproduces the inputs shipped with the CLI and with
``tests/test_acceptance.py``.  Any other seed jitters them inside ranges set
by the physics (see ``README.md``), so every seed must succeed: a seed that
fails is a failure of the program, not of the generator.

Every check returns an error and the tolerance it is held to, attributed to
the layer whose output it judges.  Tolerances are the acceptance-test and
solver-gate values; checks without one state their own next to the check.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

import scattergate as sg

# one random stream per input family
FAMILIES = ("synthesis", "forward", "pulse")

# the 1e-8 unitarity gate every direct and pulse solver already enforces
UNITARITY_TOL = 1e-8
_S2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class Check:
    layer: str
    what: str
    err: float
    tol: float

    @property
    def ratio(self) -> float:
        return float(self.err) / self.tol


@dataclass(frozen=True)
class Request:
    """One request: ``run`` is timed, ``check`` reads its output untimed.

    ``expect`` maps traced counters to the value the inputs imply, for the
    trace completeness self-check.
    """

    name: str
    budget_s: float
    run: Callable
    check: Callable
    expect: dict = field(default_factory=dict)


class Jitter:
    """Uniform jitter of the shipped inputs; seed 0 returns them unchanged."""

    def __init__(self, seed: int, family: str):
        self._rng = None
        if seed != 0:
            self._rng = np.random.default_rng([seed, FAMILIES.index(family)])

    def add(self, value, half_width):
        if self._rng is None:
            return float(value)
        return float(value + self._rng.uniform(-half_width, half_width))

    def scale(self, value, rel):
        return self.add(value, abs(value) * rel)


class Client:
    """Writes input documents and calls the CLI in-process."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.bytes_out = 0

    def write(self, name: str, doc: dict) -> str:
        path = os.path.join(self.tmp, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def cli(self, *argv) -> dict:
        out = os.path.join(self.tmp, "out.json")
        code = sg.cli.main([*argv, "--out", out])
        if code != 0:
            raise RuntimeError(f"scattergate {argv[0]} exited with code {code}")
        self.bytes_out += os.path.getsize(out)
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def _cplx(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


# Checks are made point by point: one check per momentum, spectral point or
# node.  The geometric mean then averages over hundreds of checks, and the
# roundoff-level ones among them do not make it jump from seed to seed.

def _checks(layer, what, errs, tol):
    return [Check(layer, what, float(e), tol) for e in np.ravel(errs)]


def _su11_checks(layer, a, b):
    return _checks(layer, "|a|^2-|b|^2-1", np.abs(np.abs(a) ** 2 - np.abs(b) ** 2 - 1.0),
                   UNITARITY_TOL)


def _su2_checks(layer, a, b):
    return _checks(layer, "|a|^2+|b|^2-1", np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0),
                   UNITARITY_TOL)


# ---------------------------------------------------------------------------
# synthesis: gate targets -> reflection data -> Marchenko potential -> audit

RECOVERY_X = np.linspace(-55.0, 46.0, 506)   # `gate` CLI defaults
RECOVERY_DS = 0.15
SOLITON_X = np.arange(-6.0, 6.0 + 1e-9, 0.25)


def synthesis_inputs(seed: int) -> dict:
    j = Jitter(seed, "synthesis")
    # The seed moves |r_j| only.  The phase solve is sensitive to where k_j
    # sits on its dk = w/50 grid: shifting both k by 0.0005 moves the
    # auxiliary amplitude from -0.43 to -0.39 and the round-trip error from
    # 5.0e-3 to 6.0e-3, while |r| +- 0.005 moves that error by 3%.  The gap
    # k2 - k1 = 1 also sets how far the kernel must extend (6 builds; a gap
    # 0.05 wider needs 5 and halves the cost).
    targets = []
    for k in (1.0, 2.0):
        r = j.add(_S2, 0.004)
        targets.append(sg.GateTarget(k=k, t=np.sqrt(1.0 - r * r), r=r))
    # eta >= 1 keeps Q(+-6) below the 1e-4 end-decay gate; ds shrinks as 1/eta
    # so the quadrature resolves the soliton equally well at every eta
    eta = j.add(1.005, 0.005) if seed else 1.0
    norming = float(np.exp(j.add(0.0, 0.02)))
    return {"targets": targets, "eta": eta, "norming": norming, "ds": 0.025 / eta}


def synthesis_requests(inp: dict, client: Client) -> list:
    targets = inp["targets"]
    out = {}

    def build():
        out["data"] = sg.build_scattering_data(targets)

    def check_build():
        data = out["data"]
        # build_scattering_data's own acceptance gate on the synthesized data
        dt = [abs(sg.reconstruct_transmission(data, g.k) - g.t) for g in targets]
        dr = [abs(data.reflection_at(g.k) - g.r) for g in targets]
        return _checks("dispersion", "T(k_j)-t_j", dt, 1e-3) + _checks("dispersion", "R(k_j)-r_j", dr, 1e-3)

    def recover():
        out["rec"] = sg.recover_potential(out["data"], RECOVERY_X, ds=RECOVERY_DS,
                                          threads=1, check_decay=False)

    def check_recover():
        q = out["rec"].q
        return [Check("glm", "non-finite samples", float(np.sum(~np.isfinite(q))), 1.0)]

    def audit(g):
        def run():
            out[g.k] = sg.solve_scattering(out["rec"].to_potential(), g.k)

        def check():
            c = out[g.k]
            return [
                Check("glm", "round trip T-t", abs(c.transmission - g.t), 1e-2),
                Check("glm", "round trip R-r", abs(c.reflection - g.r), 1e-2),
                *_su11_checks("direct1d", c.a, c.b),
            ]

        return run, check

    eta, b = inp["eta"], inp["norming"]

    def soliton():
        data = sg.ReflectionData(k=np.linspace(-5.0, 5.0, 11), R=np.zeros(11),
                                 bound_states=(sg.BoundState(eta, b),))
        out["soliton"] = sg.recover_potential(data, SOLITON_X, ds=inp["ds"])

    def check_soliton():
        x = SOLITON_X
        want = 2.0 * eta**2 / np.cosh(eta * x - 0.5 * np.log(b)) ** 2
        inside = np.abs(x) <= 5.0
        return _checks("glm", "one-soliton Q", np.abs(out["soliton"].q - want)[inside], 2e-4)

    reqs = [
        Request("build_scattering_data", 30.0, build, check_build,
                {"dispersion.build_scattering_data.calls": 1}),
        Request("recover_potential", 150.0, recover, check_recover,
                {"glm.recover_potential.calls": 1,
                 "glm.marchenko_diagonal.calls": 2 * RECOVERY_X.size}),
    ]
    for g in targets:
        run, check = audit(g)
        reqs.append(Request(f"solve_scattering k={g.k:.4f}", 30.0, run, check,
                            {"direct1d.solve_scattering.calls": 1}))
    reqs.append(Request("one-soliton recover_potential", 40.0, soliton, check_soliton,
                        {"glm.recover_potential.calls": 1,
                         "glm.marchenko_diagonal.calls": 2 * SOLITON_X.size}))
    return reqs


# ---------------------------------------------------------------------------
# forward: direct sweeps, bound states and reflection sampling

SWEEP = ("--kmin", "0.3", "--kmax", "6.0", "--n", "64")
SWEEP_K = sg.momentum_grid(0.3, 6.0, 64)
REBUILD_K = (0.5, 0.9, 1.7, 2.9, 4.2, 5.0)
PURE_K = (0.5, 1.0, 2.0, 3.7)
BOUND_ETA_MAX = 2.0


def forward_inputs(seed: int) -> dict:
    j = Jitter(seed, "forward")
    wells = [
        sg.SquareWell(q0=j.scale(q0, 0.05), x0=j.add(0.0, 0.5), length=j.scale(length, 0.05))
        for q0, length in ((-3.0, 1.0), (2.0, 1.5))
    ]
    eta_tab, c_tab = j.scale(1.0, 0.05), j.add(0.0, 0.5)
    # 961 samples on a 24-wide window: |Q| < 1e-9 at the ends for eta >= 0.95
    xs = np.linspace(-12.0, 12.0, 961) + c_tab
    return {
        "wells": wells,
        "sech": sg.SechSquared(eta=j.scale(1.0, 0.05), center=j.add(0.0, 0.5)),
        "tabulated": (eta_tab, sg.Tabulated(xs, 2.0 * eta_tab**2 / np.cosh(eta_tab * (xs - c_tab)) ** 2)),
        # weak algebraic tails: 2ab = 0.04 stretches the window to +-2e4
        # the solve's cost grows with k and the window sqrt(2ab/1e-10)
        "lorentzian": (sg.LorentzianSum(((j.scale(1.0, 0.02), j.scale(0.02, 0.02)),)),
                       j.scale(1.0, 0.02)),
        "bound": sg.SechSquared(eta=j.scale(1.3, 0.05), center=j.add(0.0, 0.5)),
        "pure_eta": j.scale(1.0, 0.05),
    }


def _sweep_doc(doc):
    return np.asarray(doc["k"]), _cplx(doc["a"]), _cplx(doc["b"])


def forward_requests(inp: dict, client: Client) -> list:
    out = {}
    reqs = []

    def sweep(name, pot, check_fn):
        path = client.write(name, pot.to_json())

        def run():
            out[name] = _sweep_doc(client.cli("direct", "--potential", path, *SWEEP))

        def check():
            k, a, b = out[name]
            if k.size != SWEEP_K.size:
                return [Check("direct1d", "momenta returned", abs(k.size - SWEEP_K.size), 0.5)]
            return _su11_checks("direct1d", a, b) + check_fn(k, a, b)

        reqs.append(Request(f"direct {name}", 60.0, run, check,
                            {"direct1d.solve_scattering.calls": SWEEP_K.size,
                             "cli.main.calls": 1}))

    def plane_wave(well):
        def check(k, a, b):
            # plane-wave matching: 1/|T|^2 = 1 + q0^2 sin^2(kap L) / (4 k^2 kap^2)
            kap = np.sqrt((k * k + well.q0).astype(complex))
            s = well.length * np.sinc(kap * well.length / np.pi)
            t2 = 1.0 / np.real(1.0 + well.q0**2 * s * s / (4.0 * k * k))
            return _checks("direct1d", "|T|^2 plane-wave", np.abs(1.0 / np.abs(a) ** 2 - t2), 1e-8)
        return check

    def blaschke(eta, tol):
        def check(k, a, b):
            want = (k + 1j * eta) / (k - 1j * eta)
            return (_checks("direct1d", "T Blaschke", np.abs(1.0 / a - want), tol)
                    + _checks("direct1d", "R = 0", np.abs(b / a), tol))
        return check

    for i, well in enumerate(inp["wells"]):
        sweep(f"square_well_{i}", well, plane_wave(well))
    sweep("sech_squared", inp["sech"], blaschke(inp["sech"].eta, 1e-6))
    eta_tab, tab = inp["tabulated"]
    # spline of exact sech^2 samples: own tolerance, same as the analytic well's
    sweep("tabulated_sech_squared", tab, blaschke(eta_tab, 1e-6))

    lor, k_lor = inp["lorentzian"]
    lor_path = client.write("lorentzian_sum", lor.to_json())

    def run_lor():
        out["lor"] = _sweep_doc(client.cli("direct", "--potential", lor_path,
                                           "--kmin", repr(k_lor), "--n", "1"))

    def check_lor():
        k, a, b = out["lor"]
        (a_l, b_l), = lor.pairs
        # first Born term of b; own tolerance: the second-order remainder
        # (int |Q| dx / 2k)^2
        born = 1j * np.pi * b_l * np.exp(-2.0 * k[0] * a_l) / k[0]
        return _su11_checks("direct1d", a, b) + [
            # even potential: R conj(T) is imaginary, so Re b = 0; own tolerance
            Check("direct1d", "Re b (parity)", abs(b[0].real), 1e-8),
            Check("direct1d", "b first Born", abs(b[0] - born), (np.pi * b_l / k[0]) ** 2),
        ]

    reqs.append(Request("direct lorentzian_sum", 60.0, run_lor, check_lor,
                        {"direct1d.solve_scattering.calls": 1, "cli.main.calls": 1}))

    well_b = inp["bound"]

    def run_bound():
        out["bound"] = sg.find_bound_states(well_b, BOUND_ETA_MAX)

    def check_bound():
        states = out["bound"]
        checks = [Check("direct1d", "bound-state count", abs(len(states) - 1), 0.5)]
        if len(states) == 1:
            s = states[0]
            want = np.exp(2.0 * well_b.eta * well_b.center)
            # own tolerances: brentq runs to 1e-12; the norming ratio is
            # gated at 1e-6 relative spread inside the solver
            checks.append(Check("direct1d", "eta", abs(s.eta - well_b.eta), 1e-8))
            checks.append(Check("direct1d", "norming", abs(s.norming / want - 1.0), 1e-6))
        return checks

    reqs.append(Request("find_bound_states", 60.0, run_bound, check_bound,
                        {"direct1d.find_bound_states.calls": 1}))

    barrier = inp["wells"][0]

    def run_sample():
        out["sampled"] = sg.sample_reflection(barrier, threads=1)

    def check_sample():
        data = out["sampled"]
        return [Check("dispersion", "bound states of a barrier", len(data.bound_states), 0.5)]

    reqs.append(Request("sample_reflection", 60.0, run_sample, check_sample,
                        {"direct1d.solve_scattering.calls": 420,
                         "dispersion.sample_reflection.calls": 1}))

    def run_rebuild():
        data = out["sampled"]
        out["rebuilt"] = [(sg.reconstruct_transmission(data, k),
                           sg.solve_scattering(barrier, k).transmission) for k in REBUILD_K]

    def check_rebuild():
        got, want = np.array(out["rebuilt"]).T
        return (_checks("dispersion", "|T| rebuilt", np.abs(np.abs(got) - np.abs(want)), 2e-3)
                + _checks("dispersion", "arg T rebuilt", np.abs(np.angle(got / want)), 2e-3))

    reqs.append(Request("reconstruct_transmission", 30.0, run_rebuild, check_rebuild,
                        {"direct1d.solve_scattering.calls": len(REBUILD_K),
                         "dispersion.reconstruct_transmission.calls": len(REBUILD_K)}))

    eta_p = inp["pure_eta"]

    def run_pure():
        pure = sg.ReflectionData(k=np.linspace(-5.0, 5.0, 11), R=np.zeros(11),
                                 bound_states=(sg.BoundState(eta_p, 1.0),))
        out["pure"] = [sg.reconstruct_transmission(pure, k) for k in PURE_K]

    def check_pure():
        k = np.array(PURE_K)
        want = (k + 1j * eta_p) / (k - 1j * eta_p)
        return _checks("dispersion", "T pure bound state", np.abs(np.array(out["pure"]) - want), 1e-10)

    reqs.append(Request("reconstruct_transmission bound state", 10.0, run_pure, check_pure,
                        {"dispersion.reconstruct_transmission.calls": len(PURE_K)}))
    return reqs


# ---------------------------------------------------------------------------
# pulse: two-level scans, monodromy and the dipole pair (forward); pulse
# inversion and its rescan (synthesis)

SCAN = ("--kmin", "-1.0", "--kmax", "1.0", "--n", "9")
SCAN_ZETA = np.linspace(-1.0, 1.0, 9)
RESCAN = ("--kmin", "-2.0", "--kmax", "2.0", "--n", "21")
RESCAN_ZETA = np.linspace(-2.0, 2.0, 21)
PULSE_T = np.arange(-5.5, 5.5 + 1e-9, 0.1)
ONE_POLE = np.array([[0.21 + 0.1j, 0.3], [-0.12j, -0.05]])
DIPOLE = sg.DipoleParams(d_A=0.8 + 0.3j, d_B=1.1 - 0.2j, W_plus_A=1.0, W_minus_A=-0.3,
                         W_plus_B=0.7, W_minus_B=-0.5, x=0.2 + 0.1j, y=0.6, T=1.0)


def pulse_inputs(seed: int) -> dict:
    j = Jitter(seed, "pulse")
    # The sech checks set err_over_tol.max here.  Their worst point over the
    # fixed zeta grid moves by 25% for eta +-1%, while a time shift leaves
    # every error unchanged: the seed moves t0 only.
    eta_tab, t0 = 1.0, j.add(0.0, 0.5)
    # |E| < 3e-12 at the ends of the t0 +- 14/eta window
    t = np.linspace(-14.0 / eta_tab, 14.0 / eta_tab, 961) + t0
    jit = np.array([[complex(j.add(0.0, 0.02), j.add(0.0, 0.02)) for _ in range(2)]
                    for _ in range(2)])
    dip = {name: getattr(DIPOLE, name) for name in
           ("d_A", "d_B", "W_plus_A", "W_minus_A", "W_plus_B", "W_minus_B", "x", "y", "T")}
    for name in ("W_plus_A", "W_minus_A", "W_plus_B", "W_minus_B", "y", "T"):
        dip[name] = j.scale(dip[name], 0.05)
    return {
        # cost grows with width and detuning: +-2% keeps the scan's cost steady
        "lorentzian": sg.LorentzianPulse(j.scale(1.0, 0.02), j.scale(0.25, 0.02)),
        "sech": (eta_tab, t0, sg.TabulatedPulse(t, 2.0 * eta_tab / np.cosh(2.0 * eta_tab * (t - t0)))),
        # eta >= 1 keeps |E(+-5.5)| below the 1e-4 end-decay gate; the
        # rescan's |b| follows that truncation, 2x over eta 0.97..1.03
        "soliton_eta": j.add(1.005, 0.005) if seed else 1.0,
        "image": (j.scale(2.0, 0.05), j.scale(0.25, 0.05)),
        "one_pole": ONE_POLE + jit,
        "dipole": sg.DipoleParams(**dip),
    }


def pulse_direct_requests(inp: dict, client: Client) -> list:
    out = {}
    reqs = []

    def scan(name, pulse_doc, check_fn):
        path = client.write(name, pulse_doc)

        def run():
            doc = client.cli("twolevel", "--pulse", path, *SCAN)
            out[name] = (_cplx(doc["a"]), _cplx(doc["b"]))

        def check():
            a, b = out[name]
            return _su2_checks("twolevel", a, b) + check_fn(a, b)

        reqs.append(Request(f"twolevel scan {name}", 60.0, run, check,
                            {"twolevel.scattering_matrix.calls": SCAN_ZETA.size,
                             "cli.main.calls": 1}))

    lor = inp["lorentzian"]

    def check_lor(a, b):
        mid = SCAN_ZETA.size // 2
        th = 2.0 * np.pi * lor.b
        # resonant point: pulse-area formula S = exp(-i 2 pi b sigma_1)
        checks = [Check("twolevel", "resonant a", abs(a[mid] - np.cos(th)), 1e-6),
                  Check("twolevel", "resonant b", abs(b[mid] + 1j * np.sin(th)), 1e-6)]
        # real even envelope: a(-zeta) = conj a(zeta), b(-zeta) = -conj b(zeta);
        # own tolerance, the SU(2) gate
        return (checks + _checks("twolevel", "mirror a", np.abs(a[::-1] - np.conj(a)), UNITARITY_TOL)
                + _checks("twolevel", "mirror b", np.abs(b[::-1] + np.conj(b)), UNITARITY_TOL))

    scan("lorentzian", lor.to_json(), check_lor)

    eta_s, t0, sech = inp["sech"]

    def check_sech(a, b):
        want = (SCAN_ZETA - 1j * eta_s) / (SCAN_ZETA + 1j * eta_s)
        # spline of exact sech samples: own tolerance, 3.6x the worst error
        # (2.7e-8)
        return (_checks("twolevel", "a one-soliton", np.abs(a - want), 1e-7)
                + _checks("twolevel", "b = 0", np.abs(b), 1e-7))

    scan("tabulated_sech", sech.to_json(), check_sech)

    a_m, b_m = inp["image"]
    pulse_path = client.write("image_pulse", sg.LorentzianPulse(a_m, b_m).to_json())

    def run_image():
        system, loop = sg.lorentzian_to_fuchsian(a_m, b_m)
        out["image"] = (client.write("image_system", system.to_json()),
                        client.write("image_loop", loop.to_json()))

    def run_monodromy():
        system, loop = out["image"]
        m = client.cli("monodromy", "--system", system, "--loop", loop)["monodromy"]
        s = client.cli("twolevel", "--pulse", pulse_path)["S"]
        out["monodromy"] = (_cplx(m), _cplx(s))

    def check_monodromy():
        m, s = out["monodromy"]
        return [Check("fuchsian", "gauged monodromy vs S",
                      np.max(np.abs(sg.gauge_to_su2(m) - s)), 1e-6)]

    reqs.append(Request("lorentzian_to_fuchsian", 10.0, run_image, lambda: []))
    reqs.append(Request("monodromy image", 30.0, run_monodromy, check_monodromy,
                        {"fuchsian.monodromy.calls": 1, "twolevel.scattering_matrix.calls": 1,
                         "cli.main.calls": 2}))

    res = inp["one_pole"]
    one_sys = client.write("one_pole_system", sg.FuchsianSystem(poles=(0.0,), residues=(res,)).to_json())
    one_loop = client.write("one_pole_loop", sg.CircleLoop(center=0.0, radius=0.7).to_json())

    def run_one_pole():
        out["one_pole"] = _cplx(client.cli("monodromy", "--system", one_sys,
                                           "--loop", one_loop)["monodromy"])

    def check_one_pole():
        return [Check("fuchsian", "exp(2 pi i A)",
                      np.max(np.abs(out["one_pole"] - expm(2j * np.pi * res))), 1e-8)]

    reqs.append(Request("monodromy one pole", 30.0, run_one_pole, check_one_pole,
                        {"fuchsian.monodromy.calls": 1, "cli.main.calls": 1}))

    p = inp["dipole"]
    coupled = client.write("dipole", p.to_json())
    product = client.write("dipole_product", {**p.to_json(), "y": 0.0})

    def run_entangle():
        out["entangle"] = [client.cli("entangle", "--params", path) for path in (coupled, product)]

    def check_entangle():
        coupled_doc, product_doc = out["entangle"]
        f = _cplx(coupled_doc["f"])
        return [
            # entangling: the second Schmidt value must exceed 1e-3 (ratio tol/value)
            Check("twolevel", "2nd Schmidt value (coupled)",
                  1e-3, max(coupled_doc["schmidt_values"][1], 1e-300)),
            Check("twolevel", "2nd Schmidt value (product)", product_doc["schmidt_values"][1], 1e-10),
            Check("twolevel", "F unitary", np.max(np.abs(f.conj().T @ f - np.eye(4))), UNITARITY_TOL),
        ]

    reqs.append(Request("entangle", 30.0, run_entangle, check_entangle,
                        {"twolevel.f_matrix.calls": 2, "cli.main.calls": 2}))

    def run_rect():
        h = 1e-4
        out["rect"] = (sg.rect_pulse_smatrix(p), sg.f_matrix(p),
                       sg.f_matrix(dataclasses.replace(p, T=h)),
                       sg.f_matrix(dataclasses.replace(p, T=2.0 * h)), h)

    def check_rect():
        rect, f, f1, f2, h = out["rect"]
        fd = (4.0 * f1 - f2 - 3.0 * np.eye(4)) / (2.0 * h)
        gen = 2j * (sg.dipole_hamiltonian(p, 0.0, 0.0) - sg.dipole_hamiltonian(p, p.x, p.y))
        return [Check("twolevel", "rect integration vs F", np.max(np.abs(rect - f)), 1e-8),
                Check("twolevel", "F generator", np.max(np.abs(fd - gen)), 1e-5)]

    reqs.append(Request("rect_pulse_smatrix", 30.0, run_rect, check_rect,
                        {"twolevel.f_matrix.calls": 3}))
    return reqs


def pulse_inverse_requests(inp: dict, client: Client) -> list:
    out = {}
    reqs = []

    eta = inp["soliton_eta"]

    def run_inverse():
        data = sg.TwoLevelScatteringData(zeta=np.linspace(-4.0, 4.0, 17), r=np.zeros(17),
                                         poles=(1j * eta,), norming=(-1j,))
        rec = sg.recover_pulse(data, PULSE_T, ds=0.04)
        out["recovered"] = client.write("recovered_pulse", rec.to_json())

    reqs.append(Request("recover_pulse", 60.0, run_inverse, lambda: [],
                        {"glm.recover_pulse.calls": 1}))

    def run_rescan():
        doc = client.cli("twolevel", "--pulse", out["recovered"], *RESCAN)
        out["rescan"] = (_cplx(doc["a"]), _cplx(doc["b"]))

    def check_rescan():
        a, b = out["rescan"]
        z = RESCAN_ZETA
        fit = minimize_scalar(
            lambda e: float(np.sum(np.abs(a - (z - 1j * e) / (z + 1j * e)) ** 2)),
            bounds=(0.3, 3.0), method="bounded")
        model = (z - 1j * fit.x) / (z + 1j * fit.x)
        return (_su2_checks("twolevel", a, b)
                + _checks("glm", "rescan |b|", np.abs(b), 5e-3)
                + [Check("glm", "fitted zero", abs(fit.x - eta), 1e-3)]
                + _checks("glm", "one-zero model", np.abs(a - model), 5e-3))

    reqs.append(Request("twolevel rescan recovered", 60.0, run_rescan, check_rescan,
                        {"twolevel.scattering_matrix.calls": RESCAN_ZETA.size,
                         "cli.main.calls": 1}))
    return reqs


# ---------------------------------------------------------------------------
# the workloads


def _family_inputs(potential_inputs):
    return lambda seed: {"potential": potential_inputs(seed), "pulse": pulse_inputs(seed)}


INPUTS = {"synthesis": _family_inputs(synthesis_inputs), "forward": _family_inputs(forward_inputs)}
REQUESTS = {
    "synthesis": lambda inp, client: (synthesis_requests(inp["potential"], client)
                                      + pulse_inverse_requests(inp["pulse"], client)),
    "forward": lambda inp, client: (forward_requests(inp["potential"], client)
                                    + pulse_direct_requests(inp["pulse"], client)),
}
