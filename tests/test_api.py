"""Public signatures: each solver takes only the values some caller varies.

Tolerances and step sizes with one value in use are module constants, so a
removed knob must not come back unnoticed.  ``threads`` is still accepted,
and ignored, by the two functions the benchmark calls with it.
"""

import ast
import dataclasses
import inspect
import pathlib

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
    direct1d.em_spin_smatrix: "u, v, k, rtol",
    dispersion.sample_reflection: "q, kmax, dk, n_solve, *, threads",
    dispersion.build_scattering_data: "targets, width, dk",
    glm.solve_marchenko: "kernel, x, ds, *, check_decay",
    glm.recover_potential: "data, x, ds, *, tail_tol, threads, check_decay",
    glm.recover_pulse: "data, t, ds, tail_tol, *, check_decay",
    twolevel.scattering_matrix: "pulse, *, rtol",
    twolevel.scattering_scan: "pulse, detunings, **kw",
    twolevel.rect_pulse_smatrix: "p",
    fuchsian.monodromy: "sys, loop, rtol",
    fuchsian.monodromy_product: "sys, loops, rtol",
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


def test_only_twolevel_imports_the_ode_driver():
    # every other propagation runs on the Magnus transfer matrix
    importers = set()
    for path in pathlib.Path(scattergate.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                if any(name.split(".")[-1] == "_ode" for name in names):
                    importers.add(path.stem)
    assert importers == {"twolevel"}
