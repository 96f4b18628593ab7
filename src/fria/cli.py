"""Command-line front end.

Verbs: ``bounds`` (single constant bounds as JSON), ``table`` (reference
value grids as CSV), ``experiment`` (the refinement study), ``oracle``
(spectral verification).  Table output prints 5 decimals, JSON prints 12
significant digits; identical command lines produce byte-identical output.

Exit codes: 0 success, 1 usage or output-path error, 2 computational failure.
"""

import argparse
import json
import math
import os
import sys

from . import friedrichs, maxwell
from .errors import MeshError, SolverError
from .weights import DiagonalWeight, DInterval, WeightError, parse_weight

# --method name -> Friedrichs formula (the Maxwell arm too); also the argparse choices
_FRIEDRICHS_FORMULAS = {"auto": friedrichs.best_bound, **friedrichs.FORMULAS}
# bytes per triangle of the finest level at the experiment's peak, the majorant
# norms (317 measured at level 5)
_EXPERIMENT_BYTES_PER_TRIANGLE = 320
# bytes per triangle at the oracle's peak, the mesh build included (469 measured
# at level 5, 464 at n = 512)
_ORACLE_BYTES_PER_TRIANGLE = 480


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_lengths(text):
    try:  # a bad number and a bad box (WeightError) are both ValueErrors
        return DInterval(tuple(float(v) for v in text.split(",") if v != ""))
    except ValueError as exc:
        raise UsageError(f"--lengths: {exc}") from None


def _parse_levels(text):
    from .mesh import MAX_LEVEL

    lo, sep, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise UsageError(f"--levels must be N or LO:HI, got {text!r}") from None
    if lo > hi:
        raise UsageError(f"--levels range {text!r} is empty")
    if lo < 0 or hi > MAX_LEVEL:
        raise UsageError(f"--levels must lie in 0..{MAX_LEVEL}, got {text!r}")
    return list(range(lo, hi + 1))


def _available_bytes(meminfo="/proc/meminfo"):
    """Memory the system can give this process now: ``MemAvailable``, which
    counts the page cache the kernel can drop, else the free pages alone, else
    (on a system that reports neither) no limit."""
    try:
        with open(meminfo) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):
        return math.inf


def _refuse_unless_fits(domain, size, bytes_per_triangle):
    """Refuse, before any work, a mesh size the builders refuse (their
    ``MeshError``, from ``triangle_count``), or a run whose peak of
    ``bytes_per_triangle`` per triangle of that mesh exceeds the memory
    available: it would end in a kill without a message."""
    from .mesh import triangle_count

    triangles = triangle_count(domain, size)
    need = bytes_per_triangle * triangles
    available = _available_bytes()
    if need > available:
        what = f"level {size}" if domain == "lshape" else f"n = {size}"
        raise MemoryError(
            f"{what} needs about {need / 2**30:.1f} GiB "
            f"({bytes_per_triangle} B x {triangles} triangles), "
            f"{available / 2**30:.1f} GiB available"
        )


def _weight_flag(text, flag):
    try:
        return parse_weight(text)
    except WeightError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _jsonify(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _csv(rows):
    """One line per row; floats print 5 decimals, anything else as str."""
    return "".join(
        ",".join(f"{v:.5f}" if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in rows
    )


def _report_json(report):
    payload = {"method": report.method, "value": report.value, "inputs": report.inputs}
    if report.seminorm:
        payload["seminorm"] = True
    return json.dumps(_jsonify(payload)) + "\n"


def _cmd_bounds_friedrichs(args):
    box = _parse_lengths(args.lengths)
    weight = _weight_flag(args.weight, "--weight") if args.weight else DiagonalWeight((1.0,) * box.d)
    if box.d != weight.d:
        raise UsageError(
            f"--lengths is {box.d}-dimensional but --weight is {weight.d}-dimensional"
        )
    return _report_json(_FRIEDRICHS_FORMULAS[args.method](box, weight))


def _cmd_bounds_maxwell(args):
    box = _parse_lengths(args.lengths)
    eps = _weight_flag(args.eps, "--eps") if args.eps else DiagonalWeight((1.0, 1.0, 1.0))
    try:
        inp = maxwell.MaxwellInput(box, eps, diam=args.diam, eps_max=args.eps_max)
    except WeightError as exc:
        raise UsageError(str(exc)) from None
    return _report_json(maxwell.maxwell_bound(inp, _FRIEDRICHS_FORMULAS[args.method]))


def _cmd_table(args):
    if args.number == 1:
        deltas, rows = friedrichs.TABLE1_DELTAS, friedrichs.table1_rows()
    else:
        deltas, rows = maxwell.TABLE3_DELTAS, maxwell.table3_rows()
    header = ["delta", *(f"{d:.0e}" for d in deltas)]
    return _csv([header, *([name, *values] for name, values in rows)])


def _solution_writer(directory):
    os.makedirs(directory, exist_ok=True)

    def sink(level, solution):
        path = os.path.join(directory, f"solution_level{level}.csv")
        with open(path, "w") as fh:
            fh.write("vertex,value\n")
            # Python floats format to the same text as numpy scalars, faster
            fh.writelines(f"{i},{v:.12g}\n" for i, v in enumerate(solution.values.tolist()))

    return sink


def _cmd_experiment(args):
    from . import majorant

    levels = _parse_levels(args.levels)
    alpha = _weight_flag(args.alpha, "--alpha")
    if alpha.d != 2:
        raise UsageError("--alpha must be 2-dimensional for the experiment")
    if alpha.eigenvalues[0] <= 0.0:
        raise UsageError("--alpha must be positive definite for the experiment")
    text = args.constants
    if text is None:  # the default: the constants of the paper's Table 2
        text = ",".join(str(c) for c in majorant.TABLE2_CONSTANTS)
    try:
        constants = [float(c) for c in text.split(",") if c != ""]
    except ValueError:
        constants = []  # reported by the check below
    if not constants or not all(0.0 < c < math.inf for c in constants):
        raise UsageError("--constants needs a comma-separated list of finite positive reals")
    if not math.isfinite(args.f):
        raise UsageError(f"--f must be finite, got {args.f}")
    _refuse_unless_fits("lshape", max(levels), _EXPERIMENT_BYTES_PER_TRIANGLE)
    sink = _solution_writer(args.solutions) if args.solutions else None
    rows = majorant.run_refinement_experiment(levels, alpha, args.f, constants, sink=sink)
    if tuple(constants) == majorant.TABLE2_CONSTANTS:
        columns = ["M_coarse", "M_thmA"]
    else:
        columns = [f"M_{i + 1}" for i in range(len(constants))]
    header = ["level", "elements", *columns]
    table = [[r.level, r.elements, *r.majorants] for r in rows]
    if args.out == "json" or str(args.out).endswith(".json"):
        return json.dumps(_jsonify([dict(zip(header, row)) for row in table])) + "\n"
    return _csv([header, *table])


def _cmd_oracle(args):
    from . import mesh, oracle

    other = "level" if args.domain == "square" else "n"
    if getattr(args, other) is not None:
        raise UsageError(f"--{other} does not apply to --domain {args.domain}")
    alpha = _weight_flag(args.alpha, "--alpha")
    if alpha.d != 2:
        raise UsageError("--alpha must be 2-dimensional")
    # refuses a weight without a bound before any mesh is built
    bound = friedrichs.best_bound(DInterval((1.0, 1.0)), alpha).value
    if args.domain == "square":
        size, build = 64 if args.n is None else args.n, mesh.build_unit_square
    else:
        size, build = 0 if args.level is None else args.level, mesh.build_lshape
    _refuse_unless_fits(args.domain, size, _ORACLE_BYTES_PER_TRIANGLE)
    estimate = oracle.estimate_cfa(build(size), alpha)
    payload = {
        "lambda_min": estimate.lambda_min,
        "c_estimate": estimate.c_estimate,
        "bound": bound,
        "margin": bound - estimate.c_estimate,
    }
    return json.dumps(_jsonify(payload)) + "\n"


def build_parser():
    parser = _Parser(prog="fria", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    bounds = sub.add_parser("bounds", help="single constant bound as JSON")
    bsub = bounds.add_subparsers(dest="kind", required=True)
    bf = bsub.add_parser("friedrichs")
    bf.add_argument("--lengths", required=True, help="box side lengths, e.g. 1,1")
    bf.add_argument("--weight", help="diag:a,b[,c] or full:upper-triangle (default identity)")
    bf.add_argument("--method", default="auto", choices=list(_FRIEDRICHS_FORMULAS))
    bm = bsub.add_parser("maxwell")
    bm.add_argument("--lengths", required=True, help="box side lengths, e.g. 1,1,1")
    bm.add_argument("--eps", help="permittivity matrix (default identity)")
    bm.add_argument("--diam", type=float, help="domain diameter (default box diagonal)")
    bm.add_argument("--eps-max", type=float, dest="eps_max", help="largest eigenvalue override")
    bm.add_argument("--method", default="auto", choices=["auto", "coarse"])

    table = sub.add_parser("table", help="reference value grid as CSV")
    table.add_argument("number", type=int, choices=[1, 3])

    experiment = sub.add_parser("experiment", help="L-shape refinement study")
    esub = experiment.add_subparsers(dest="kind", required=True)
    e2 = esub.add_parser("table2")
    e2.add_argument("--levels", default="0:4", help="level range LO:HI (default 0:4)")
    e2.add_argument("--alpha", default="diag:1,1e-4")
    e2.add_argument("--f", type=float, default=1.0)
    e2.add_argument("--constants", help="comma-separated constant bounds fed to the majorant")
    e2.add_argument(
        "--solutions",
        metavar="DIR",
        help="also export each level's nodal solution as vertex,value CSV",
    )

    orc = sub.add_parser("oracle", help="spectral verification run")
    osub = orc.add_subparsers(dest="kind", required=True)
    cfa = osub.add_parser("cfa")
    cfa.add_argument("--domain", default="square", choices=["square", "lshape"])
    cfa.add_argument("--n", type=int, help="square grid resolution (default 64)")
    cfa.add_argument("--level", type=int, help="lshape refinement level (default 0)")
    cfa.add_argument("--alpha", default="diag:1,1")

    for leaf, run in (
        (bf, _cmd_bounds_friedrichs),
        (bm, _cmd_bounds_maxwell),
        (table, _cmd_table),
        (e2, _cmd_experiment),
        (cfa, _cmd_oracle),
    ):
        leaf.add_argument("--out", help="'csv' or 'json' (stdout), or an output path")
        leaf.set_defaults(run=run)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.out in (None, "csv", "json"):
            sys.stdout.write(args.run(args))
        else:
            # opened before any work and emptied only once the command succeeds
            with open(args.out, "a") as fh:
                text = args.run(args)
                fh.truncate(0)
                fh.write(text)
    # MeshError comes only from a bad --n or --level, before any work
    except (UsageError, OSError, MeshError) as exc:
        sys.stderr.write(f"fria: {exc}\n")
        return 1
    except (WeightError, ValueError, SolverError, MemoryError) as exc:
        # a bare MemoryError has no message
        sys.stderr.write(f"fria: {str(exc) or type(exc).__name__}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
