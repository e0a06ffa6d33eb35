"""Benchmark of scattergate's inverse and direct pipelines; see perfbench/README.md.

    python3 perfbench/run.py --workload synthesis --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Run from the root of a source checkout: the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

# the library's `threads` setting in every request (its default)
LIBRARY_THREADS = 1
SETUP_PROBES = 5
# a run must end within 180 s: stop starting requests after this
RUN_DEADLINE_S = 165.0
EPS = sys.float_info.epsilon


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class RequestTimeout(BaseException):
    """Raised by SIGALRM when a request exceeds its budget.

    A BaseException, so the library's own ``except Exception`` handlers
    cannot swallow it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


# ---------------------------------------------------------------------------
# machine facts and guards


def _blas_threads() -> dict:
    """Thread count of every BLAS library loaded into this process."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads",
             "MKL_Get_Max_Threads")
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if ".so" in line and "blas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts() -> dict:
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401 - loads scipy's own BLAS, if it bundles one

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "library_threads": LIBRARY_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


def thread_guard(facts) -> str | None:
    blas = max(facts["blas_threads"].values(), default=facts["nproc"])
    if LIBRARY_THREADS * blas > facts["nproc"]:
        return (f"library threads {LIBRARY_THREADS} x BLAS threads {blas} exceed "
                f"nproc {facts['nproc']}; set OPENBLAS_NUM_THREADS")
    return None


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, tmp: str):
    """Import the program, build the CLI parser and generate the inputs."""
    import scattergate.cli
    import workloads

    scattergate.cli.build_parser()
    client = workloads.Client(tmp)
    inputs = workloads.INPUTS[workload](seed)
    workloads.REQUESTS[workload](inputs, client)
    return inputs, client


def setup_seconds(workload: str, seed: int) -> list:
    """Wall time of fresh interpreters running ``setup``, one per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# passes


class Outcome:
    def __init__(self, req):
        self.name = req.name
        self.expect = req.expect
        self.wall = 0.0
        self.cpu = 0.0
        self.checks = []
        self.error = None


def run_request(req, deadline, tracer=None) -> Outcome:
    out = Outcome(req)
    budget = min(req.budget_s, deadline - time.perf_counter())
    if budget <= 0:
        out.error = "not started: run deadline reached"
        return out
    if tracer is not None:
        tracer.request, tracer.recording = req.name, True
    t0, c0 = time.perf_counter(), time.process_time()
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        req.run()
    except RequestTimeout:
        out.error = f"exceeded its {budget:.0f} s budget"
    except Exception as exc:  # noqa: BLE001 - a failed request is recorded, the run goes on
        out.error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        out.wall = time.perf_counter() - t0
        out.cpu = time.process_time() - c0
        if tracer is not None:
            tracer.recording = False
    if out.error is None:
        try:
            out.checks = req.check()
        except Exception as exc:  # noqa: BLE001
            out.error = f"check raised {type(exc).__name__}: {exc}"
    if out.error is None:
        bad = [c for c in out.checks if not c.ratio <= 1.0]
        if bad:
            worst = max(bad, key=lambda c: c.ratio if math.isfinite(c.ratio) else math.inf)
            out.error = (f"{len(bad)} check(s) over tolerance, worst {worst.layer} "
                         f"'{worst.what}': {worst.err:.3e} > {worst.tol:.1e}")
    return out


def run_pass(workload, inputs, client, deadline, tracer=None) -> list:
    import workloads

    return [run_request(req, deadline, tracer)
            for req in workloads.REQUESTS[workload](inputs, client)]


def _gmean(ratios):
    return math.exp(statistics.fmean(math.log(max(r, EPS)) for r in ratios)) if ratios else 0.0


def count_mismatches(outcomes, tracer) -> list:
    """Traced call counts that differ from the counts the inputs imply."""
    problems = []
    want = {}
    for o in outcomes:
        for key, n in o.expect.items():
            want[key] = want.get(key, 0) + n
    totals = tracer.span_totals()
    for key, n in sorted(want.items()):
        got = totals.get(key[: -len(".calls")], [0])[0]
        if got != n:
            problems.append(f"{key}: traced {got}, inputs imply {n}")
    return problems


# ---------------------------------------------------------------------------
# reporting


def _print_failures(outcomes):
    for o in outcomes:
        if o.error:
            print(f"FAILED {o.name}: {o.error}")


def _table(rows):
    for name, value, unit, samples in rows:
        print(f"  {name:44s} {value:>14.6g} {unit:6s} n={samples}")


def run_workload(args) -> int:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    spec = _spec()
    facts = machine_facts()
    refusal = thread_guard(facts)
    print("machine " + json.dumps(facts))
    if refusal:
        print("refused: " + refusal, file=sys.stderr)
        return 3
    # the traced run reports per-layer metrics only, so it skips the probes
    setup_times = [] if args.trace else setup_seconds(args.workload, args.seed)

    BUILD.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD)
    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    tracer, problems = None, []
    try:
        inputs, client = setup(args.workload, args.seed, tmp)
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            problems = [f"unwrapped binding {n}" for n in tracer.unwrapped_bindings()]
        passes = []
        t_run = time.perf_counter()
        # the traced run makes one pass, so its counts are those of one pass
        while True:
            passes.append(run_pass(args.workload, inputs, client, deadline, tracer))
            elapsed = time.perf_counter() - t_run
            walls = [sum(o.wall for o in p) for p in passes]
            if tracer or elapsed + statistics.median(walls) > args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        signal.signal(signal.SIGALRM, old_handler)
        shutil.rmtree(tmp, ignore_errors=True)

    outcomes = [o for p in passes for o in p]
    cpus = [sum(o.cpu for o in p) for p in passes]
    checks = [c for o in outcomes for c in o.checks]
    # a non-finite ratio has already failed its request; the metrics stay finite
    ratios = [c.ratio for c in checks if math.isfinite(c.ratio)]
    failed = sum(1 for o in outcomes if o.error)
    print("pass wall_s " + " ".join(f"{w:.3f}" for w in walls))
    worst = {}
    for c in checks:
        key = (c.layer, c.what)
        if key not in worst or not c.ratio <= worst[key].ratio:
            worst[key] = c
    for c in sorted(worst.values(), key=lambda c: c.ratio if math.isfinite(c.ratio) else math.inf,
                    reverse=True)[:5]:
        print(f"worst check {c.layer} '{c.what}': {c.err:.3e} / {c.tol:.1e} = {c.ratio:.4g}")
    if tracer:
        problems += count_mismatches(outcomes, tracer)
        for p in problems:
            print("TRACE SELF-CHECK FAILED " + p)
        values = tracer.metrics(checks, client.bytes_out)
        values["trace.wall_s"] = walls[0]
        spans = BUILD / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.span_records()))
        print(f"spans written to {spans.relative_to(ROOT)}")
        wanted = spec["per_layer"]
        samples = {m["name"]: 1 for m in wanted}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "err_over_tol.max": max(ratios, default=0.0),
            "err_over_tol.gmean": _gmean(ratios),
        }
        wanted = spec["end_to_end"]
        samples = {"setup_s": len(setup_times), "wall_s": len(passes), "cpu_s": len(passes),
                   "peak_rss_mb": 1, "err_over_tol.max": len(ratios),
                   "err_over_tol.gmean": len(ratios)}
    correct = failed == 0 and not problems

    _print_failures(outcomes)
    print(f"workload {args.workload} seed {args.seed}: {len(outcomes)} requests, {failed} failed")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    rows = [(k, v["value"], v["unit"], samples[k]) for k, v in metrics.items()]
    if not tracer:
        # printed but not a BENCHMARK.json metric, which must never read 0
        rows.append(("fail_ratio", failed / len(outcomes), "1", len(outcomes)))
    _table(rows)
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args, workloads) -> int:
    """Every workload in its own interpreter, one after the other.

    With ``--trace 1`` each workload also gets a traced run, and the tracing
    overhead (traced pass minus untraced ``wall_s``) is printed."""
    results = {}
    for w in workloads:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"== {w} --trace {trace}", flush=True)
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=200)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"workload {w} exited with code {proc.returncode}", file=sys.stderr)
                return 1
            results[w, trace] = json.loads(lines[-1])
        if args.trace:
            traced = results[w, 1]["metrics"]["trace.wall_s"]["value"]
            untraced = results[w, 0]["metrics"]["wall_s"]["value"]
            print(f"tracing overhead {w}: {traced - untraced:+.3f} s "
                  f"(traced pass {traced:.3f} s, untraced wall_s {untraced:.3f} s)")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for (w, _), r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in _spec()["workloads"]]
    p.add_argument("--workload", required=True, choices=(*names, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "scattergate" / "__init__.py").is_file():
        print(f"no scattergate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args, names)
    if args.setup_probe:
        BUILD.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
            setup(args.workload, args.seed, tmp)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
