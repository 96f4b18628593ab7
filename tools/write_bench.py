"""Write BENCH_<short sha>.json at the root of the checkout that holds this file.

    python3 tools/write_bench.py

Runs ``perfbench/run.py --workload W --trace 0`` once for each workload and
keeps the last line of each run, the JSON result.  One more run of
``table2_aniso`` with ``--trace 1 --seconds 1`` gives the CG iteration count
of every level and every per-layer time (the metrics named ``*_s``, kept as
``table2_aniso_layers_s``).  Those layer times are misattributed: the tracer
still wraps functions ``fem`` no longer has, so ``fem.assemble_s`` and
``fem.reduce_s`` read 0 and the assembly is counted in ``fem.solve_s``
(ROADMAP item 3).  ``table2_l5_stages_s`` times the same stages directly,
in this process, the fastest of 3 each, on the level-5 L-shape with
diag(1, 1e-4) and f = 1: ``build_lshape(5)``, ``Dirichlet(m).stiffness``
(the pattern, the lines, the entries and the line factor, as
``solve_diffusion`` builds them), ``conjugate_gradients`` on that system,
``rt_average`` of a fresh solution (its gradients included) and
``flux_defect_norms``.  One run of ``oracle_cfa`` gives the LOBPCG step count of each anisotropy (its
``count oracle.outer_iters.delta*`` lines).  Beside those steps,
``oracle_cfa_setup_s`` is the oracle's setup alone, timed in this process:
``fem.multigrid_stiffness`` and the reduced mass (``mesh.dirichlet.mass``,
as ``estimate_cfa`` reads it) for the three deltas of ``oracle_cfa`` on a
fresh n = 128 square, the fastest of 5.  ``mesh_layer_s`` times the mesh
layer the same way, the fastest of 5 each: ``build_lshape(5)``,
``build_unit_square(128)`` and ``validate`` of that square.
``mesh_build_peak_b_per_tri`` is the tracemalloc peak of ``build_lshape(4)``
per triangle, with ``scipy.sparse`` imported first, as ``TestMemory`` counts
it.  ``calibration_s`` is the fastest of 5 timings of a fixed numpy kernel
that no fria code and no BLAS call enters (``np.sort`` of 2**21 seeded
float64 values, then ``np.cumsum``), so that the series can tell a faster or
slower machine from a change of code.  Then ``python -m fria.cli experiment
table2 --levels 5``, ``--levels 6``, ``--levels 7`` (6.29M triangles, about
2.1 GB at peak) and ``--levels 5 --alpha diag:1,1`` (about 1169 line-CG
iterations: the isotropic weight is the one the line relaxation suits
least) run each in a child process of its own, with ``PYTHONPATH=src``;
the file keeps the wall time of
each, that child's peak RSS and its user + system CPU seconds (``cpu_s``),
read from ``os.wait4`` (``RUSAGE_CHILDREN`` would mix in the benchmark
runs).  A wall time that moves while ``cpu_s`` stays put points at the
machine, not the code.  The short runs, children the same way, take 0.1 to
0.35 s, so a single run varies by a few percent; each keeps the fastest of 5
child runs, with that run's peak RSS and CPU seconds: ``oracle cfa --n 128``
and ``oracle cfa --domain lshape --level 4`` (one oracle call each, so each
coarse mesh is built once at any commit), and the cold starts ``bounds
friedrichs --lengths 1,1 --weight diag:1,1e-4`` and ``table 1``, mostly
interpreter and import time.  The file also records the Python, numpy and scipy versions, the CPUs the
process may use, the commit, whether tracked files differ from it,
``src_lines``, the total line count of ``src/fria/*.py``, and
``src_code_lines``, the lines of those files that are not blank, not ``#``
comments and not inside a module, class or function docstring.
"""

import ast
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("table2_aniso", "manufactured_square", "oracle_cfa", "bounds_sweep")


def _stdout(*argv):
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout


def _bench_lines(workload, *flags):
    return _stdout(sys.executable, "perfbench/run.py", "--workload", workload, *flags).splitlines()


def _result(workload, *flags):
    return json.loads(_bench_lines(workload, *flags)[-1])


def _oracle_steps():
    """LOBPCG steps per anisotropy delta of one traced ``oracle_cfa`` run."""
    prefix = "count oracle.outer_iters.delta"
    lines = _bench_lines("oracle_cfa", "--trace", "1", "--seconds", "1")
    pairs = (line[len(prefix):].split() for line in lines if line.startswith(prefix))
    return {delta: json.loads(steps) for delta, steps in pairs}


def _oracle_setup_s():
    """Fastest of 5 timings of the ``oracle_cfa`` setup on a fresh mesh."""
    sys.path.insert(0, str(ROOT / "src"))
    from fria import fem, mesh, weights

    alphas = [weights.DiagonalWeight((1.0, delta)) for delta in (1e-2, 1.0, 1e2)]
    fem.multigrid_stiffness(mesh.build_unit_square(32), alphas[0])  # loads scipy.sparse
    best = float("inf")
    for _ in range(5):
        m = mesh.build_unit_square(128)
        start = time.perf_counter()
        for alpha in alphas:
            fem.multigrid_stiffness(m, alpha)
            m.dirichlet.mass
        best = min(best, time.perf_counter() - start)
    return best


def _best_of(call, runs=5):
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _table2_l5_stages_s():
    """Fastest of 3 timings of each stage of the level-5 table2 solve."""
    sys.path.insert(0, str(ROOT / "src"))
    from fria import fem, flux, mesh, weights

    alpha = weights.DiagonalWeight((1.0, 1e-4))
    m = mesh.build_lshape(5)
    b = fem.lumped_load(m, 1.0)[m.interior_vertices]
    _, k, precondition = fem.Dirichlet(m).stiffness(alpha)
    solution = fem.solve_diffusion(m, alpha, 1.0)
    field = flux.rt_average(solution, alpha)
    return {
        "build_lshape(5)": _best_of(lambda: mesh.build_lshape(5), 3),
        "Dirichlet.stiffness": _best_of(lambda: fem.Dirichlet(m).stiffness(alpha), 3),
        "conjugate_gradients": _best_of(lambda: fem.conjugate_gradients(k, b, precondition), 3),
        "rt_average": _best_of(
            lambda: flux.rt_average(fem.P1Solution(m, solution.values), alpha), 3
        ),
        "flux_defect_norms": _best_of(
            lambda: flux.flux_defect_norms(field, solution, alpha, 1.0), 3
        ),
    }


def _mesh_layer_s():
    """Fastest of 5 timings of each mesh-layer step, in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    from fria import mesh

    square = mesh.build_unit_square(128)
    return {
        "build_lshape(5)": _best_of(lambda: mesh.build_lshape(5)),
        "build_unit_square(128)": _best_of(lambda: mesh.build_unit_square(128)),
        "validate(square 128)": _best_of(lambda: mesh.validate(square)),
    }


def _mesh_build_peak_b_per_tri():
    """tracemalloc peak of ``build_lshape(4)`` per triangle, in this process."""
    sys.path.insert(0, str(ROOT / "src"))
    import scipy.sparse  # noqa: F401  (loaded before the count, as in TestMemory)
    from fria import mesh

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        m = mesh.build_lshape(4)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak / m.num_triangles


def _calibration_s():
    """Fastest of 5 timings of a sort and a running sum in numpy alone."""
    values = numpy.random.default_rng(0).standard_normal(2**21)
    return _best_of(lambda: numpy.cumsum(numpy.sort(values)))


def _code_lines(path):
    """Lines of ``path`` that are neither blank, nor ``#`` comments, nor
    inside a module, class or function docstring."""
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


def _cli_run(*args, runs=1):
    """Wall time, peak RSS and CPU seconds of the fastest of ``runs`` child runs."""
    return min((_cli_once(*args) for _ in range(runs)), key=lambda run: run["wall_s"])


def _cli_once(*args):
    argv = [sys.executable, "-m", "fria.cli", *args]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, argv)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


def main():
    results = {w: _result(w, "--trace", "0") for w in WORKLOADS}
    traced = _result("table2_aniso", "--trace", "1", "--seconds", "1")["metrics"]
    prefix = "fem.cg_iters.L"
    iterations = {k[len(prefix) - 1:]: v["value"] for k, v in traced.items() if k.startswith(prefix)}
    cli_runs = {
        f"table2 --levels {level}": _cli_run("experiment", "table2", "--levels", str(level))
        for level in (5, 6, 7)
    }
    cli_runs["table2 --levels 5 --alpha diag:1,1"] = _cli_run(
        "experiment", "table2", "--levels", "5", "--alpha", "diag:1,1"
    )
    for verb in (
        "oracle cfa --n 128",
        "oracle cfa --domain lshape --level 4",
        "bounds friedrichs --lengths 1,1 --weight diag:1,1e-4",
        "table 1",
    ):
        cli_runs[verb] = _cli_run(*verb.split(), runs=5)
    sha = _stdout("git", "rev-parse", "HEAD").strip()
    record = {
        "commit": sha,
        "dirty": bool(_stdout("git", "status", "--porcelain", "--untracked-files=no").strip()),
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
        "results": results,
        "table2_aniso_cg_iterations": iterations,
        "table2_aniso_cg_s": traced["fem.cg_s"]["value"],
        "table2_aniso_layers_s": {k: v["value"] for k, v in traced.items() if k.endswith("_s")},
        "table2_l5_stages_s": _table2_l5_stages_s(),
        "oracle_cfa_steps": _oracle_steps(),
        "oracle_cfa_setup_s": _oracle_setup_s(),
        "mesh_layer_s": _mesh_layer_s(),
        "mesh_build_peak_b_per_tri": _mesh_build_peak_b_per_tri(),
        "calibration_s": _calibration_s(),
        "cli_runs": cli_runs,
        "src_lines": sum(len(p.read_text().splitlines()) for p in ROOT.glob("src/fria/*.py")),
        "src_code_lines": sum(_code_lines(p) for p in ROOT.glob("src/fria/*.py")),
    }
    path = ROOT / f"BENCH_{sha[:7]}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main()
