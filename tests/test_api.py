"""Public signatures: each solver takes only the values some caller varies.

Tolerances and step sizes with one value in use are module constants, so a
removed knob must not come back unnoticed.  ``threads`` is still accepted,
and ignored, by the two functions the benchmark calls with it.
"""

import ast
import dataclasses
import inspect
import pathlib
import types

import pytest

import scattergate
from scattergate import cli, direct1d, dispersion, fuchsian, glm, twolevel

SOLVER_MODULES = (direct1d, dispersion, glm, twolevel, fuchsian)


def shape(fn) -> str:
    # "a, b, *, c" for def fn(a, b, *, c); "**kw" for a keyword catch-all
    out, star = [], False
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.VAR_KEYWORD:
            out.append("**" + p.name)
            continue
        if p.kind is p.KEYWORD_ONLY and not star:
            out.append("*")
            star = True
        out.append(p.name)
    return ", ".join(out)


SIGNATURES = {
    direct1d.solve_scattering: "q, k, rtol",
    direct1d.solve_grid: "q, ks, *, rtol",
    direct1d.find_bound_states: "q, eta_max",
    direct1d.em_spin_smatrix: "u, v, k",
    dispersion.sample_reflection: "q, kmax, dk, n_solve, *, threads",
    dispersion.build_scattering_data: "targets",
    glm.solve_marchenko: "kernel, x, ds, *, check_decay",
    glm.recover_potential: "data, x, ds, *, tail_tol, threads, check_decay",
    glm.recover_pulse: "data, t, ds, tail_tol, *, check_decay",
    twolevel.scattering_matrix: "pulse, *, rtol",
    twolevel.scattering_scan: "pulse, detunings, *, rtol",
    twolevel.rect_pulse_smatrix: "p",
    fuchsian.monodromy: "sys, loop, rtol",
    fuchsian.monodromy_product: "sys, loops",
}


def public_functions():
    for mod in SOLVER_MODULES:
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                yield f"{mod.__name__.split('.')[-1]}.{name}", obj


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda fn: fn.__name__)
def test_signature_is_pinned(fn):
    assert shape(fn) == SIGNATURES[fn]


def test_threads_only_where_the_benchmark_passes_it():
    have = {name for name, fn in public_functions()
            if "threads" in inspect.signature(fn).parameters}
    assert have == {"dispersion.sample_reflection", "glm.recover_potential"}


def test_no_solver_takes_atol():
    have = [name for name, fn in public_functions()
            if "atol" in inspect.signature(fn).parameters]
    assert have == []


def test_fuchsian_system_fields():
    names = [f.name for f in dataclasses.fields(fuchsian.FuchsianSystem)]
    assert names == ["poles", "residues"]


def test_cli_has_no_threads_flag():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    for name, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings}
        assert "--threads" not in flags, name


def test_no_module_imports_a_scipy_ode_solver():
    # every propagation runs on the Magnus transfer matrix; quadrature such
    # as cumulative_trapezoid stays allowed
    solvers = {"solve_ivp", "odeint", "ode", "complex_ode", "OdeSolver", "DenseOutput",
               "RK23", "RK45", "DOP853", "Radau", "BDF", "LSODA"}
    found = []
    for path in pathlib.Path(scattergate.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                found += [(path.stem, a.name) for a in node.names if a.name in solvers]
            elif isinstance(node, ast.Attribute) and node.attr in solvers:
                found.append((path.stem, node.attr))
    assert found == []


def test_star_import_binds_the_public_names():
    # __all__ is derived: every public name of the package that is not a module
    ns = {}
    exec("from scattergate import *", ns)
    public = {name for name, value in vars(scattergate).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(ns) - {"__builtins__"} == public
    assert len(scattergate.__all__) == len(public)
