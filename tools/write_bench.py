"""Write BENCH_<short sha>.json at the root of the checkout that holds this file.

    python3 tools/write_bench.py

Runs ``perfbench/run.py --workload W --trace 0`` once for each workload and
keeps the last line of each run, the JSON result; it makes no traced run, so
the file holds no per-layer table.  A run whose checks fail stops the tool
with one line naming the workload and its ``failed`` count, before any file
is written.  The ``oracle_cfa`` run's ``count oracle.outer_iters.delta*``
lines give the LOBPCG step count of each anisotropy (``oracle_cfa_steps``).
The rest is measured in this process, with ``src`` on ``sys.path``.
``table2_aniso_cg_iterations`` is the ``iterations`` of
``fem.solve_diffusion`` on ``build_lshape(L)`` with diag(1, 1e-4) and f = 1
for L = 0..5, as ``table2_aniso`` solves them.
``table2_l5_stages_s`` times the stages of the level-5 solve, the fastest of
3 each: ``build_lshape(5)``, ``Dirichlet(m).stiffness``
(the pattern, the lines, the entries and the line factor, as
``solve_diffusion`` builds them), ``conjugate_gradients`` on that system,
``rt_average`` of a fresh solution (its gradients included) and
``flux_defect_norms``.  ``oracle_cfa_setup_s`` is the oracle's setup alone:
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
friedrichs --lengths 1,1 --weight diag:1,1e-4``, ``table 1``, ``bounds
friedrichs --lengths 1,1 --weight full:2,0.5,1`` (a full weight, whose
eigenvalues load numpy) and ``python -c "import fria"`` (kept as ``import
fria``), mostly interpreter and import time.  The child runs come before
the measurements in this process, so that a child's peak RSS, which starts
at this process's RSS at the fork, does not carry their meshes.  The file
also records the Python, numpy and scipy versions, the CPUs the
process may use, the commit, whether tracked files differ from it,
``src_lines``, the total line count of ``src/fria/*.py``, and
``src_code_lines``, the lines of those files that are not blank, not ``#``
comments and not inside a module, class or function docstring;
``bench_code_lines`` counts ``perfbench/*.py`` and ``tools/*.py`` the same
way.
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
sys.path.insert(0, str(ROOT / "src"))
WORKLOADS = ("table2_aniso", "manufactured_square", "oracle_cfa", "bounds_sweep")


def _stdout(*argv):
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout


def _bench(workload):
    """The JSON result of one untraced ``perfbench/run.py`` run of
    ``workload`` and its ``count`` lines as a dict; exits when a check
    failed."""
    argv = (sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0")
    lines = _stdout(*argv).splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: {result['failed']} checks failed")
    counts = (line.split()[1:] for line in lines if line.startswith("count "))
    return result, {key: json.loads(value) for key, value in counts}


def _cg_iterations():
    """CG iterations of the ``table2_aniso`` solve on each level 0..5."""
    from fria import fem, mesh, weights

    alpha = weights.DiagonalWeight((1.0, 1e-4))
    return {
        f"L{level}": fem.solve_diffusion(mesh.build_lshape(level), alpha, 1.0).iterations
        for level in range(6)
    }


def _oracle_setup_s():
    """Fastest of 5 timings of the ``oracle_cfa`` setup on a fresh mesh."""
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
    from fria import mesh

    square = mesh.build_unit_square(128)
    return {
        "build_lshape(5)": _best_of(lambda: mesh.build_lshape(5)),
        "build_unit_square(128)": _best_of(lambda: mesh.build_unit_square(128)),
        "validate(square 128)": _best_of(lambda: mesh.validate(square)),
    }


def _mesh_build_peak_b_per_tri():
    """tracemalloc peak of ``build_lshape(4)`` per triangle, in this process."""
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


def _python_run(*args, runs=1):
    """Wall time, peak RSS and CPU seconds of the fastest of ``runs`` child
    runs of ``python args``."""
    return min((_python_once(*args) for _ in range(runs)), key=lambda run: run["wall_s"])


def _python_once(*args):
    argv = [sys.executable, *args]
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
    runs = {w: _bench(w) for w in WORKLOADS}
    _, counts = runs["oracle_cfa"]
    steps = {k.removeprefix("oracle.outer_iters.delta"): v for k, v in counts.items()}
    table2 = [f"table2 --levels {levels}" for levels in ("5", "6", "7", "5 --alpha diag:1,1")]
    cli_runs = {v: _python_run("-m", "fria.cli", "experiment", *v.split()) for v in table2}
    for verb in (
        "oracle cfa --n 128",
        "oracle cfa --domain lshape --level 4",
        "bounds friedrichs --lengths 1,1 --weight diag:1,1e-4",
        "table 1",
        "bounds friedrichs --lengths 1,1 --weight full:2,0.5,1",
    ):
        cli_runs[verb] = _python_run("-m", "fria.cli", *verb.split(), runs=5)
    cli_runs["import fria"] = _python_run("-c", "import fria", runs=5)
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
        "results": {w: result for w, (result, _) in runs.items()},
        "table2_aniso_cg_iterations": _cg_iterations(),
        "table2_l5_stages_s": _table2_l5_stages_s(),
        "oracle_cfa_steps": steps,
        "oracle_cfa_setup_s": _oracle_setup_s(),
        "mesh_layer_s": _mesh_layer_s(),
        "mesh_build_peak_b_per_tri": _mesh_build_peak_b_per_tri(),
        "calibration_s": _calibration_s(),
        "cli_runs": cli_runs,
        "src_lines": sum(len(p.read_text().splitlines()) for p in ROOT.glob("src/fria/*.py")),
        "src_code_lines": sum(_code_lines(p) for p in ROOT.glob("src/fria/*.py")),
        "bench_code_lines": sum(
            _code_lines(p) for d in ("perfbench", "tools") for p in ROOT.glob(f"{d}/*.py")
        ),
    }
    path = ROOT / f"BENCH_{sha[:7]}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main()
