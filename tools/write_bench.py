"""Write BENCH_<short sha>.json at the root of the checkout that holds this file.

    python3 tools/write_bench.py
    python3 tools/write_bench.py --against REV

Without ``--against`` the tool measures this checkout.  It runs
``perfbench/run.py --workload W --trace 0`` once for each workload and
keeps the last line of each run, the JSON result; it makes no traced run, so
the file holds no per-layer table.  A run whose checks fail stops the tool
with one line naming the workload and its ``failed`` count, before any file
is written.

With ``--against REV`` it checks REV out with ``git worktree add`` into a
temporary directory (local: no network), measures both trees with this
version of the tool and removes the worktree again.  Each benchmark
workload runs ``PAIRS`` (10) times on each tree, the two trees
alternating and the one to go first alternating from pair to pair, so that
a slow spell of a shared machine falls on both.  Both BENCH files are
written, REV's first; each file's ``results`` holds the median of each
metric over its ten runs.  The change's file also holds the ``pairs`` record:
for each workload and metric the median and the quartiles on each tree, and
``wins``, the pairs in which this checkout did better (by the ``better`` of
``BENCHMARK.json``).  After each pair the tool prints one progress line to
stderr, ``pair I of 10 done, S s``; stdout holds only the paths written.

The ``oracle_cfa`` run's ``count oracle.outer_iters.delta*`` lines give the
LOBPCG step count of each anisotropy (``oracle_cfa_steps``).  The rest is
measured in one child process per tree that imports fria from that tree's
``src``.  ``table2_aniso_cg_iterations`` is the ``iterations`` of
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
``table2_l4_stage_peaks_b_per_tri`` is the tracemalloc peak of each stage of
the level-4 ``table2_aniso`` run per triangle, each counted from before the
mesh build, so the mesh and every array kept alive are included, with
``scipy.sparse`` imported first, as ``TestMemory`` counts them: ``build``
(``build_lshape(4)``; this was ``mesh_build_peak_b_per_tri``), ``solve``
(``solve_diffusion``), ``rt_average`` and ``norms``
(``flux_defect_norms``).  ``calibration_s`` is the fastest of 5 timings of
a fixed numpy kernel that no fria code and no BLAS call enters (``np.sort``
of 2**21 seeded float64 values, then ``np.cumsum``), so that the series can
tell a faster or slower machine from a change of code.  Then ``python -m fria.cli experiment
table2 --levels 5``, ``--levels 6``, ``--levels 7`` (6.29M triangles, about
2.1 GB at peak) and ``--levels 5 --alpha diag:1,1`` (about 1169 line-CG
iterations: the isotropic weight is the one the line relaxation suits
least) run each in a child process of its own, with ``PYTHONPATH`` the
tree's ``src``; the file keeps the wall time of each, that child's peak RSS
and its user + system CPU seconds (``cpu_s``).  A wall time that moves while
``cpu_s`` stays put points at the machine, not the code.  Each child starts
through a launcher, a ``python -S`` that forks, execs the child and reads
its usage from ``os.wait4``: a child's peak RSS starts at the RSS its parent
had at the fork, and the launcher's is a few MB, where this tool's is tens.
The short runs take 0.1 to 0.35 s, so a single run varies by a few percent;
each keeps the fastest of 5 child runs, with that run's peak RSS and CPU
seconds: ``oracle cfa --n 128`` and ``oracle cfa --domain lshape --level 4``
(one oracle call each, so each coarse mesh is built once at any commit), and
the cold starts ``bounds friedrichs --lengths 1,1 --weight diag:1,1e-4``,
``table 1``, ``bounds friedrichs --lengths 1,1 --weight full:2,0.5,1`` (a
full weight, whose eigenvalues load numpy) and ``python -c "import fria"``
(kept as ``import fria``), mostly interpreter and import time.  The file
also records the Python, numpy and scipy versions, the CPUs the process may
use, the commit, whether tracked files differ from it, ``src_lines``, the
total line count of ``src/fria/*.py``, and ``src_code_lines``, the lines of
those files that are not blank, not ``#`` comments and not inside a module,
class or function docstring (the sum of ``src_code_lines_by_module``, the
count of each file keyed by its stem); ``bench_code_lines`` counts
``perfbench/*.py`` and ``tools/*.py`` the same way.
"""

import argparse
import ast
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("table2_aniso", "manufactured_square", "oracle_cfa", "bounds_sweep")
# runs of each workload per tree with --against; a gain needs wins in nine tenths of ten
PAIRS = 10
# forks, execs argv[1:] with stdout on /dev/null and prints the child's
# status, wall seconds, CPU seconds and peak RSS in KiB; -S keeps it small
LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        os.execv(sys.argv[1], sys.argv[1:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
print(os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
"""
# run in a child with a tree's src first on sys.path: this tool's in-process
# measurements, printed as JSON
IN_PROCESS = "import json, runpy, sys; print(json.dumps(runpy.run_path(sys.argv[1])['_in_process']()))"


def _stdout(*argv, cwd=ROOT, env=None):
    run = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return run.stdout


def _tree_env(tree):
    return {**os.environ, "PYTHONPATH": str(tree / "src")}


def _bench(workload, tree=ROOT):
    """The JSON result of one untraced ``perfbench/run.py`` run of
    ``workload`` in ``tree`` and its ``count`` lines as a dict; exits when a
    check failed."""
    argv = (sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0")
    lines = _stdout(*argv, cwd=tree).splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: {result['failed']} checks failed")
    counts = (line.split()[1:] for line in lines if line.startswith("count "))
    return result, {key: json.loads(value) for key, value in counts}


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _pairs(parent, change, better):
    """Per metric of the runs' ``metrics``: the median and quartiles of the
    parent's and of the change's runs, and the pairs the change wins.
    ``parent`` and ``change`` are lists of run results, paired by position;
    ``better`` maps a metric to ``"lower"`` or ``"higher"``."""
    record = {}
    for metric in change[0]["metrics"]:
        old, new = ([run["metrics"][metric]["value"] for run in runs] for runs in (parent, change))
        sign = 1 if better[metric] == "higher" else -1
        record[metric] = {
            "parent": _spread(old),
            "change": _spread(new),
            "wins": sum(sign * (b - a) > 0 for a, b in zip(old, new)),
            "better": better[metric],
        }
    return record


def _medians(runs):
    """One result holding the median of each metric over ``runs``."""
    metrics = runs[0]["metrics"]
    return {
        "correct": all(run["correct"] for run in runs),
        "runs": len(runs),
        "metrics": {
            name: {
                "value": statistics.median(run["metrics"][name]["value"] for run in runs),
                "unit": metric["unit"],
            }
            for name, metric in metrics.items()
        },
    }


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


def _table2_stage_peaks_b_per_tri(level=4):
    """tracemalloc peak of each stage of the table2 run on ``build_lshape(level)``
    per triangle, counted from before the build, in this process."""
    import scipy.sparse  # noqa: F401  (loaded before the count, as in TestMemory)
    from fria import fem, flux, mesh, weights

    alpha = weights.DiagonalWeight((1.0, 1e-4))
    peaks = {}
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]

        def stage(name, value):
            peaks[name] = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            return value

        m = stage("build", mesh.build_lshape(level))
        solution = stage("solve", fem.solve_diffusion(m, alpha, 1.0))
        field = stage("rt_average", flux.rt_average(solution, alpha))
        stage("norms", flux.flux_defect_norms(field, solution, alpha, 1.0))
    finally:
        tracemalloc.stop()
    return {name: peak / m.num_triangles for name, peak in peaks.items()}


def _calibration_s():
    """Fastest of 5 timings of a sort and a running sum in numpy alone."""
    import numpy

    values = numpy.random.default_rng(0).standard_normal(2**21)
    return _best_of(lambda: numpy.cumsum(numpy.sort(values)))


def _in_process():
    """The measurements made in this process, which imports fria from the
    first ``src`` on its path."""
    import numpy
    import scipy

    import fria

    return {
        "fria": fria.__file__,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
        "table2_aniso_cg_iterations": _cg_iterations(),
        "table2_l5_stages_s": _table2_l5_stages_s(),
        "oracle_cfa_setup_s": _oracle_setup_s(),
        "mesh_layer_s": _mesh_layer_s(),
        "table2_l4_stage_peaks_b_per_tri": _table2_stage_peaks_b_per_tri(),
        "calibration_s": _calibration_s(),
    }


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


def _code_lines_by_module(tree):
    """``_code_lines`` of each ``src/fria/*.py`` of ``tree``, keyed by stem."""
    return {p.stem: _code_lines(p) for p in sorted(tree.glob("src/fria/*.py"))}


def _python_run(*args, tree=ROOT, runs=1):
    """Wall time, peak RSS and CPU seconds of the fastest of ``runs`` child
    runs of ``python args`` in ``tree``."""
    return min((_python_once(*args, tree=tree) for _ in range(runs)), key=lambda run: run["wall_s"])


def _python_once(*args, tree=ROOT):
    argv = [sys.executable, *args]
    out = _stdout(sys.executable, "-S", "-c", LAUNCHER, *argv, cwd=tree, env=_tree_env(tree))
    code, wall, cpu, maxrss = out.split()
    if int(code):
        raise subprocess.CalledProcessError(int(code), argv)
    return {"wall_s": float(wall), "cpu_s": float(cpu), "peak_rss_mb": int(maxrss) / 1024}


def _cli_runs(tree):
    table2 = [f"table2 --levels {levels}" for levels in ("5", "6", "7", "5 --alpha diag:1,1")]
    runs = {v: _python_run("-m", "fria.cli", "experiment", *v.split(), tree=tree) for v in table2}
    for verb in (
        "oracle cfa --n 128",
        "oracle cfa --domain lshape --level 4",
        "bounds friedrichs --lengths 1,1 --weight diag:1,1e-4",
        "table 1",
        "bounds friedrichs --lengths 1,1 --weight full:2,0.5,1",
    ):
        runs[verb] = _python_run("-m", "fria.cli", *verb.split(), tree=tree, runs=5)
    runs["import fria"] = _python_run("-c", "import fria", tree=tree, runs=5)
    return runs


def _write(tree, results, counts, **extra):
    """Measure ``tree`` and write its BENCH file at the root of this checkout."""
    sha = _stdout("git", "rev-parse", "HEAD", cwd=tree).strip()
    cli_runs = _cli_runs(tree)
    code_lines = _code_lines_by_module(tree)
    in_process = (sys.executable, "-c", IN_PROCESS, __file__)
    measured = json.loads(_stdout(*in_process, cwd=tree, env=_tree_env(tree)))
    if not Path(measured.pop("fria")).is_relative_to(tree / "src"):
        sys.exit(f"the measuring child did not import fria from {tree / 'src'}")
    record = {
        "commit": sha,
        "dirty": bool(
            _stdout("git", "status", "--porcelain", "--untracked-files=no", cwd=tree).strip()
        ),
        "env": measured.pop("env"),
        "results": results,
        **measured,
        "oracle_cfa_steps": {
            k.removeprefix("oracle.outer_iters.delta"): v for k, v in counts.items()
        },
        "cli_runs": cli_runs,
        "src_lines": sum(len(p.read_text().splitlines()) for p in tree.glob("src/fria/*.py")),
        "src_code_lines": sum(code_lines.values()),
        "src_code_lines_by_module": code_lines,
        "bench_code_lines": sum(
            _code_lines(p) for d in ("perfbench", "tools") for p in tree.glob(f"{d}/*.py")
        ),
        **extra,
    }
    path = ROOT / f"BENCH_{sha[:7]}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)


@contextlib.contextmanager
def _worktree(rev):
    """A detached checkout of ``rev`` in a temporary directory, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="write_bench-") as parent:
        tree = Path(parent) / "tree"
        _stdout("git", "worktree", "add", "--detach", str(tree), rev)
        try:
            yield tree
        finally:
            _stdout("git", "worktree", "remove", "--force", str(tree))


def _against(rev):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    with _worktree(rev) as parent:
        trees = (parent, ROOT)
        runs = {tree: {w: [] for w in WORKLOADS} for tree in trees}
        start = time.perf_counter()
        for i in range(PAIRS):
            for workload in WORKLOADS:
                for tree in trees if i % 2 == 0 else trees[::-1]:
                    runs[tree][workload].append(_bench(workload, tree))
            elapsed = time.perf_counter() - start
            print(f"pair {i + 1} of {PAIRS} done, {elapsed:.0f} s", file=sys.stderr, flush=True)
        results = {
            tree: {w: _medians([result for result, _ in runs[tree][w]]) for w in WORKLOADS}
            for tree in trees
        }
        steps = {tree: runs[tree]["oracle_cfa"][0][1] for tree in trees}
        _write(parent, results[parent], steps[parent])
        record = {
            "against": _stdout("git", "rev-parse", "HEAD", cwd=parent).strip(),
            "pairs": PAIRS,
            "workloads": {
                w: _pairs(*([result for result, _ in runs[tree][w]] for tree in trees), better)
                for w in WORKLOADS
            },
        }
        _write(ROOT, results[ROOT], steps[ROOT], pairs=record)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="also measure REV and compare in pairs")
    args = parser.parse_args(argv)
    if args.against is not None:
        _against(args.against)
        return
    runs = {w: _bench(w) for w in WORKLOADS}
    _write(ROOT, {w: result for w, (result, _) in runs.items()}, runs["oracle_cfa"][1])


if __name__ == "__main__":
    main()
