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

from . import friedrichs, majorant, maxwell, oracle, weights
from .fem import SolverError
from .mesh import MAX_LEVEL, MeshError, build_lshape, build_unit_square
from .weights import DiagonalWeight, DInterval, WeightError, parse_weight

# --method name -> Friedrichs formula; also the argparse choices
_FRIEDRICHS_FORMULAS = {
    "auto": friedrichs.best_bound,
    "mikhlin": lambda box, w: friedrichs.mikhlin_bound(box),
    "coarse": friedrichs.coarse_bound,
    "thmA": friedrichs.diagonal_bound,
    "thmA2": friedrichs.full_bound,
    "semidef": friedrichs.semidef_bound,
}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_lengths(text):
    try:
        values = [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"--lengths: {exc}") from None
    try:
        return DInterval(tuple(values))
    except WeightError as exc:
        raise UsageError(f"--lengths: {exc}") from None


def _parse_levels(text):
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


def _weight_flag(text, flag):
    try:
        return parse_weight(text)
    except WeightError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _json_float(x):
    return float(f"{x:.12g}")


def _jsonify(obj):
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _csv_table(deltas, rows):
    lines = ["delta," + ",".join(f"{d:.0e}" for d in deltas)]
    for name, values in rows:
        lines.append(name + "," + ",".join(f"{v:.5f}" for v in values))
    return "\n".join(lines) + "\n"


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
    if args.method == "coarse":
        return _report_json(maxwell.maxwell_coarse(inp))
    if isinstance(eps, DiagonalWeight):
        return _report_json(maxwell.maxwell_diagonal(inp))
    return _report_json(maxwell.maxwell_full(inp))


def _cmd_table(args):
    if args.number == 1:
        return _csv_table(friedrichs.TABLE1_DELTAS, friedrichs.table1_rows())
    return _csv_table(maxwell.TABLE3_DELTAS, maxwell.table3_rows())


def _experiment_columns(constants):
    if len(constants) == 2:
        return ["M_coarse", "M_thmA"]
    return [f"M_{i + 1}" for i in range(len(constants))]


def _solution_writer(directory):
    os.makedirs(directory, exist_ok=True)

    def sink(level, solution):
        path = os.path.join(directory, f"solution_level{level}.csv")
        with open(path, "w") as fh:
            fh.write("vertex,value\n")
            for i, v in enumerate(solution.values):
                fh.write(f"{i},{v:.12g}\n")

    return sink


def _cmd_experiment(args):
    levels = _parse_levels(args.levels)
    alpha = _weight_flag(args.alpha, "--alpha")
    if alpha.d != 2:
        raise UsageError("--alpha must be 2-dimensional for the experiment")
    if weights.smallest_eigenvalue(alpha) <= 0.0:
        raise UsageError("--alpha must be positive definite for the experiment")
    try:
        constants = [float(c) for c in args.constants.split(",") if c != ""]
    except ValueError:
        constants = []  # reported by the check below
    if not constants or not all(0.0 < c < math.inf for c in constants):
        raise UsageError("--constants needs a comma-separated list of finite positive reals")
    if not math.isfinite(args.f):
        raise UsageError(f"--f must be finite, got {args.f}")
    sink = _solution_writer(args.solutions) if args.solutions else None
    rows = majorant.run_refinement_experiment(levels, alpha, args.f, constants, sink=sink)
    columns = _experiment_columns(constants)
    if args.out == "json" or str(args.out).endswith(".json"):
        payload = [
            dict(
                {"level": r.level, "elements": r.elements},
                **{c: _json_float(v) for c, v in zip(columns, r.majorants)},
            )
            for r in rows
        ]
        return json.dumps(payload) + "\n"
    lines = ["level,elements," + ",".join(columns)]
    for r in rows:
        lines.append(
            f"{r.level},{r.elements}," + ",".join(f"{v:.5f}" for v in r.majorants)
        )
    return "\n".join(lines) + "\n"


def _cmd_oracle(args):
    alpha = _weight_flag(args.alpha, "--alpha")
    if alpha.d != 2:
        raise UsageError("--alpha must be 2-dimensional")
    # refuses a weight without a bound before any mesh is built
    bound = friedrichs.best_bound(DInterval((1.0, 1.0)), alpha).value
    mesh = build_unit_square(args.n) if args.domain == "square" else build_lshape(args.level)
    estimate = oracle.estimate_cfa(mesh, alpha)
    payload = {
        "lambda_min": estimate.lambda_min,
        "c_estimate": estimate.c_estimate,
        "bound_thmA": bound,
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
    e2.add_argument(
        "--constants",
        default=",".join(str(c) for c in majorant.TABLE2_CONSTANTS),
        help="comma-separated constant bounds fed to the majorant",
    )
    e2.add_argument(
        "--solutions",
        metavar="DIR",
        help="also export each level's nodal solution as vertex,value CSV",
    )

    orc = sub.add_parser("oracle", help="spectral verification run")
    osub = orc.add_subparsers(dest="kind", required=True)
    cfa = osub.add_parser("cfa")
    cfa.add_argument("--domain", default="square", choices=["square", "lshape"])
    cfa.add_argument("--n", type=int, default=64, help="square grid resolution")
    cfa.add_argument("--level", type=int, default=0, help="lshape refinement level")
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
    except (UsageError, OSError) as exc:
        sys.stderr.write(f"fria: {exc}\n")
        return 1
    except (WeightError, ValueError, MeshError, SolverError) as exc:
        sys.stderr.write(f"fria: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
