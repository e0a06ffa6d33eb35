"""Command-line front end: parse configuration files, run the library
pipelines, and emit JSON or CSV results.

The parsed argument namespace is the run configuration; ``build_parser``
declares each subcommand once, with its runner ``args.run``, which returns
the result document plus an optional flat table.
Numbers are serialized with 17 significant digits so a rerun on identical
inputs is byte-identical and values survive a round trip exactly.

Exit codes: 0 success, 2 parse or validation failure, 3 numeric failure,
4 infeasible gate target.  Failures print a machine-readable
``{"error": {...}}`` object to stderr.  The SCATTERGATE_LOG environment
variable (error, info or debug) sets stderr log verbosity; numeric warnings
are logged at debug level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
import warnings

import numpy as np

from .algebra import (
    HADAMARD,
    NOT_GATE,
    entanglement_verdict,
    gate_distance,
    operator_schmidt,
    phase_gate,
    tau,
)
from .codec import Positive, _field, _to_pairs, from_json, to_json
from .direct1d import PotentialSpec, momentum_grid, solve_grid, solve_scattering
from .dispersion import GateTarget, ReflectionData, build_scattering_data
from .errors import InfeasibleTargetError, NumericalError
from .fuchsian import FuchsianSystem, Loop, monodromy
from .glm import TwoLevelScatteringData, recover_potential, recover_pulse
from .twolevel import (
    DipoleParams,
    PulseSpec,
    f_matrix,
    scattering_matrix,
    scattering_scan,
)

log = logging.getLogger("scattergate.cli")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


class CliError(Exception):
    """A parse or validation failure: exit code 2, kind "parse"."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads -2e0 as a flag; no option here looks like a number
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)

    # argparse prints usage and exits on its own; route through CliError so
    # every failure path emits the same error object
    def error(self, message):
        raise CliError(message)


def _g17(x: float) -> str:
    return f"{float(x):.17g}"


def _json_text(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _g17(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_text(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_text(table) -> str:
    header, rows = table
    lines = [",".join(header)]
    lines.extend(",".join(_g17(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _grid(args) -> np.ndarray:
    """The --kmin/--kmax/--n grid; a span that overflows is refused here,
    where linspace would only warn and return non-finite points."""
    if not np.isfinite(args.kmax - args.kmin):
        raise CliError(f"--kmin/--kmax span from {args.kmin:g} to {args.kmax:g} overflows")
    return np.linspace(args.kmin, args.kmax, args.n)


def _tol(args) -> dict:
    # --tol as the keyword its subcommand declares; none without --tol
    return {} if args.tol is None else {args.tol_keyword: args.tol}


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands: each returns (doc, table-or-None)


def _run_direct(args):
    pot = from_json(PotentialSpec, _load_json(args.potential))
    ks = momentum_grid(args.kmin, args.kmax, args.n)
    log.info("direct solve of %s at %d momenta", pot.variant, ks.size)
    coeffs = solve_grid(pot, ks, **_tol(args))
    rows = [
        [c.k, c.a.real, c.a.imag, c.b.real, c.b.imag,
         abs(c.transmission) ** 2, abs(c.reflection) ** 2]
        for c in coeffs
    ]
    doc = {
        "subcommand": "direct",
        "potential": pot.to_json(),
        "k": [c.k for c in coeffs],
        "a": _to_pairs([c.a for c in coeffs]),
        "b": _to_pairs([c.b for c in coeffs]),
        "transmission_prob": [abs(c.transmission) ** 2 for c in coeffs],
        "reflection_prob": [abs(c.reflection) ** 2 for c in coeffs],
    }
    return doc, (["k", "re_a", "im_a", "re_b", "im_b", "T2", "R2"], rows)


def _run_inverse(args):
    doc_in = _load_json(args.data)
    grid = _grid(args)
    if "poles" in doc_in:
        data = from_json(TwoLevelScatteringData, doc_in)
        log.info("pulse recovery on %d nodes", grid.size)
        rec = recover_pulse(data, grid, check_decay=not args.keep_ends, **_tol(args))
        doc = {"subcommand": "inverse", "kind": "pulse", **rec.to_json()}
        table = (["t", "re_E", "im_E"],
                 [[t, e.real, e.imag] for t, e in zip(rec.t, rec.E)])
        return doc, table
    data = from_json(ReflectionData, doc_in)
    log.info("potential recovery on %d nodes", grid.size)
    rec = recover_potential(data, grid, check_decay=not args.keep_ends, **_tol(args))
    doc = {"subcommand": "inverse", "kind": "potential", **rec.to_potential().to_json()}
    return doc, (["x", "q"], [[xi, qi] for xi, qi in zip(rec.x, rec.q)])


def _family_doc(name, pairs, target):
    ns = np.arange(1, 101)
    # sqrt(n^2+1) squares back with ~n^2 eps roundoff, so loosen the pair gate
    dists = [gate_distance(tau(*pairs(n), atol=1e-8), target) for n in ns]
    doc = {
        "subcommand": "gate",
        "target": name,
        "n": ns.tolist(),
        "distance": dists,
        "final_distance": dists[-1],
        "monotone": bool(all(x > y for x, y in zip(dists, dists[1:]))),
    }
    return doc, (["n", "distance"], [[int(n), d] for n, d in zip(ns, dists)])


def _run_gate(args):
    if args.target == "not":
        return _family_doc("not", lambda n: (np.sqrt(n * n + 1.0), float(n)), NOT_GATE)
    if args.target == "phase":
        phi = args.phi
        # the off-diagonal -b/a entry carries an extra sign, so the family
        # with b = -n e^{i phi/2} lands on the phase gate at phi + pi
        return _family_doc(
            "phase",
            lambda n: (np.sqrt(n * n + 1.0), -n * np.exp(0.5j * phi)),
            phase_gate(phi + np.pi),
        )

    s2 = 1.0 / np.sqrt(2.0)
    m = tau(np.sqrt(2.0), 1.0)
    example = {
        "a": _to_pairs(np.sqrt(2.0)),
        "b": _to_pairs(1.0),
        "smatrix": _to_pairs(m),
        "distance_to_hadamard": gate_distance(m, HADAMARD),
    }
    targets = [GateTarget(k=1.0, t=s2, r=s2), GateTarget(k=2.0, t=s2, r=s2)]
    x = _grid(args)
    log.info("building reflection data for %d targets", len(targets))
    data = build_scattering_data(targets)
    log.info("recovering the realizing potential on %d nodes", x.size)
    rec = recover_potential(data, x, ds=0.15, check_decay=False, **_tol(args))
    pot = rec.to_potential()
    achieved = []
    worst = 0.0
    for g in targets:
        c = solve_scattering(pot, g.k)
        et = abs(c.transmission - g.t)
        er = abs(c.reflection - g.r)
        worst = max(worst, et, er)
        achieved.append({
            "k": g.k,
            "t": _to_pairs(c.transmission),
            "r": _to_pairs(c.reflection),
            "t_error": et,
            "r_error": er,
        })
    log.info("pipeline round trip worst error %.3e", worst)
    doc = {
        "subcommand": "gate",
        "target": "hadamard",
        "example": example,
        "pipeline": {
            "targets": [to_json(g) for g in targets],
            "achieved": achieved,
            "max_error": worst,
        },
        "potential": pot.to_json(),
    }
    return doc, (["x", "q"], [[xi, qi] for xi, qi in zip(rec.x, rec.q)])


def _run_twolevel(args):
    pulse = from_json(PulseSpec, _load_json(args.pulse))
    if args.n is not None:
        if args.zeta is not None:
            raise CliError("--zeta and a zeta grid are mutually exclusive")
        zetas = _grid(args)
        log.info("scattering scan at %d spectral points", zetas.size)
        # spectral point zeta probes the envelope detuned by -2 zeta
        mats = scattering_scan(pulse, -2.0 * zetas, **_tol(args))
        doc = {
            "subcommand": "twolevel",
            "zeta": zetas.tolist(),
            "a": _to_pairs(mats[:, 0, 0]),
            "b": _to_pairs(mats[:, 1, 0]),
        }
        table = (["zeta", "re_a", "im_a", "re_b", "im_b"],
                 [[z, m[0, 0].real, m[0, 0].imag, m[1, 0].real, m[1, 0].imag]
                  for z, m in zip(zetas, mats)])
        return doc, table
    if args.zeta is not None:
        pulse = PulseSpec(pulse.envelope, detuning=-2.0 * args.zeta)
    s = scattering_matrix(pulse, **_tol(args))
    doc = {
        "subcommand": "twolevel",
        "S": _to_pairs(s),
        "a": _to_pairs(s[0, 0]),
        "b": _to_pairs(s[1, 0]),
    }
    return doc, None


def _run_entangle(args):
    params = from_json(DipoleParams, _load_json(args.params))
    f = f_matrix(params)
    sd = operator_schmidt(f)
    doc = {
        "schmidt_values": sd.coefficients.tolist(),
        "verdict": entanglement_verdict(f),
        "f": _to_pairs(f),
    }
    return doc, None


def _run_monodromy(args):
    system = from_json(FuchsianSystem, _load_json(args.system))
    loop = from_json(Loop, _load_json(args.loop))
    log.info("continuing around a %s loop past %d poles", loop.kind, len(system.poles))
    m = monodromy(system, loop, **_tol(args))
    doc = {
        "subcommand": "monodromy",
        "monodromy": _to_pairs(m),
        "trace": _to_pairs(np.trace(m)),
    }
    return doc, None


def _number(*hints):
    # argparse type: float(text), then the codec's field rule of each hint in turn
    def parse(text):
        try:
            value = float(text)
            for hint in hints:
                value = _field(hint, value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="scattergate", description="quantum gates as scattering matrices")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, run, grid=None, tol=None, csv=False):
        # run(args) -> (doc, table); --tol sets the library keyword tol; csv:
        # bare stdout is the flat table; a grid without a size is off until --n
        sp.set_defaults(run=run, tol_keyword=tol, csv=csv)
        sp.add_argument("--out", help="output file; a .csv suffix selects the flat table")
        if tol:
            sp.add_argument("--tol", type=_number(Positive), default=None,
                            help="numeric tolerance override for this pipeline")
        if grid:
            lo, hi, n, what = grid
            sp.add_argument("--kmin", type=_number(float), default=lo, help=f"{what} grid start")
            sp.add_argument("--kmax", type=_number(float), default=hi, help=f"{what} grid end")
            sp.add_argument("--n", type=_number(Positive, int), default=n, help=f"{what} grid size"
                            + (" (enables the scan)" if n is None else ""))

    sp = sub.add_parser("direct", help="scattering amplitudes of a potential")
    sp.add_argument("--potential", required=True, help="potential JSON document")
    common(sp, _run_direct, grid=(0.5, 5.0, 64, "momentum"), tol="rtol", csv=True)

    sp = sub.add_parser("inverse", help="recover a potential or pulse from data")
    sp.add_argument("--data", required=True,
                    help="reflection-data or two-level-data JSON document")
    sp.add_argument("--keep-ends", action="store_true",
                    help="skip the window-end decay check (band-limited data)")
    common(sp, _run_inverse, grid=(-6.0, 6.0, 121, "sample"), tol="tail_tol")

    sp = sub.add_parser("gate", help="gate constructions and the synthesis round trip")
    sp.add_argument("--target", required=True, choices=("hadamard", "not", "phase"))
    sp.add_argument("--phi", type=_number(float), default=np.pi / 3.0,
                    help="phase-family angle (phase target only)")
    common(sp, _run_gate, grid=(-55.0, 46.0, 506, "recovery"), tol="tail_tol")

    sp = sub.add_parser("twolevel", help="pulse scattering matrix or spectral scan")
    sp.add_argument("--pulse", required=True, help="pulse JSON document")
    sp.add_argument("--zeta", type=_number(float), default=None, help="single spectral point")
    common(sp, _run_twolevel, grid=(-3.0, 3.0, None, "zeta"), tol="rtol")

    sp = sub.add_parser("entangle", help="operator Schmidt verdict of the pair gate")
    sp.add_argument("--params", required=True, help="dipole-pair JSON document")
    common(sp, _run_entangle)

    sp = sub.add_parser("monodromy", help="loop monodromy of a Fuchsian system")
    sp.add_argument("--system", required=True, help="system JSON document")
    sp.add_argument("--loop", required=True, help="loop JSON document")
    common(sp, _run_monodromy, tol="rtol")
    return p


def _emit(doc, table, args):
    as_csv = args.out.endswith(".csv") if args.out else args.csv
    if as_csv and table is None:
        raise CliError(f"{args.subcommand} produces no flat table; use a .json output")
    text = _csv_text(table) if as_csv else _json_text(doc) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        log.info("wrote %s", args.out)
    else:
        sys.stdout.write(text)


def _configure_logging():
    name = os.environ.get("SCATTERGATE_LOG", "error").strip().lower()
    if name not in _LOG_LEVELS:
        raise CliError(f"SCATTERGATE_LOG must be one of {sorted(_LOG_LEVELS)}, "
                       f"not {name!r}")
    logging.basicConfig(
        stream=sys.stderr,
        level=_LOG_LEVELS[name],
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )


def _fail(code, kind, message) -> int:
    sys.stderr.write(_json_text({"error": {"code": code, "kind": kind, "message": message}}) + "\n")
    return code


def _log_warning(message, category, filename, lineno, file=None, line=None):
    log.debug("%s:%d: %s: %s", filename, lineno, category.__name__, message)


def main(argv=None) -> int:
    # warnings go to the logger so a failure stays one line on stderr; the
    # context restores the caller's warning state (main also runs in-process)
    with warnings.catch_warnings():
        warnings.showwarning = _log_warning
        try:
            _configure_logging()
            args = build_parser().parse_args(argv)
            doc, table = args.run(args)
            _emit(doc, table, args)
            return 0
        except CliError as exc:
            return _fail(2, "parse", str(exc))
        except InfeasibleTargetError as exc:
            return _fail(4, "infeasible", str(exc))
        except NumericalError as exc:
            return _fail(3, "numeric", str(exc))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            return _fail(2, "parse", f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
