"""The four benchmark workloads.

Each workload has ``prepare(seed)`` for its timed inputs, ``warm_inputs()``
for a small untimed instance that loads lazy imports first,
``steps(inputs, out)`` for the timed calls into fria,
``check(inputs, outputs)`` for the correctness checks as ``(label, ok)``
pairs, ``items(outputs)`` for the work one pass certifies, and
``counts(outputs)`` for the exact figures that repeat from run to run,
keyed like the per-layer metrics.  Workloads call fria through module
attributes (``mesh.build_unit_square``, never a name imported into this
file), so the traced run sees every call.

``steps`` is a generator that appends the pass's outputs to ``out`` and
yields between steps, so that the timing loop can time each step on its
own; ``run`` runs a whole pass.
"""

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from fria import cli, flux, friedrichs, manufactured, maxwell, mesh, oracle, weights

EXPECTED = Path(__file__).resolve().parent / "expected"
UNIT_BOX = weights.DInterval((1.0, 1.0))


def run(workload, inputs):
    """One whole pass; returns its outputs."""
    out = []
    for _ in workload.steps(inputs, out):
        pass
    return out


def _experiment_argv(levels):
    return [
        "experiment", "table2", "--levels", levels,
        "--alpha", "diag:1,1e-4", "--f", "1", "--constants", "22.50791,0.31829",
    ]


class Table2Aniso:
    """``fria experiment table2 --levels 0:5`` in process, stdout captured."""

    name = "table2_aniso"
    seeded = False
    # the paper's Table 2, checked at the acceptance tolerance of 15 %
    REFERENCE = {
        "M_coarse": (18.4444, 17.1419, 16.1891, 14.9832, 13.2664),
        "M_thmA": (1.5563, 0.9166, 0.5705, 0.3809, 0.2695),
    }
    LEVELS = range(6)

    def prepare(self, seed):
        return _experiment_argv("0:5")

    def warm_inputs(self):
        return _experiment_argv("0:1")

    def steps(self, argv, out):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out.append((code, buf.getvalue()))
        yield

    def check(self, argv, outputs):
        ((code, text),) = outputs
        expected = (EXPECTED / "table2_levels0-5.csv").read_text()
        checks = [("exit code 0", code == 0), ("stdout equals the seed's bytes", text == expected)]
        rows = [line.split(",") for line in text.splitlines()[1:]]
        checks.append(("one row per level", [int(r[0]) for r in rows] == list(self.LEVELS)))
        for level, row in zip(self.LEVELS, rows):
            checks.append((f"L{level} elements", int(row[1]) == 384 * 4**level))
        for idx, key in ((2, "M_coarse"), (3, "M_thmA")):
            values = [float(r[idx]) for r in rows]
            for level, printed in enumerate(self.REFERENCE[key]):
                ok = level < len(values) and abs(values[level] - printed) <= 0.15 * printed
                checks.append((f"L{level} {key} within 15% of Table 2", ok))
            checks.append((f"{key} decreases", all(a > b for a, b in zip(values, values[1:]))))
        return checks

    def items(self, outputs):
        return sum(384 * 4**level for level in self.LEVELS)

    def counts(self, outputs):
        return {"mesh.triangles": self.items(outputs)}


class ManufacturedSquare:
    """Certified solve of the smooth sine problem on the unit square."""

    name = "manufactured_square"
    seeded = False
    C_TILDE = 1.0 / (math.pi * math.sqrt(2.0))

    def prepare(self, seed):
        # n = 256 as well would take 5-8 s and 900 MB a pass: too few repeats
        # in one run for a steady figure on a shared machine
        return (32, 64, 128)

    def warm_inputs(self):
        return (8, 16)

    def steps(self, sizes, out):
        for n in sizes:
            m = mesh.build_unit_square(n)
            yield
            problems = mesh.validate(m)
            yield
            s = manufactured.solve(m)
            field = flux.rt_average(s, manufactured.IDENTITY2)
            yield
            maj = manufactured.majorant_total(self.C_TILDE, s, field)
            yield
            err = manufactured.exact_energy_error(s)
            out.append(
                (n, m.num_triangles, tuple(problems), s.iterations, s.values,
                 field.dofs, maj.residual_norm, maj.defect_norm, maj.total, err)
            )
            yield

    def check(self, sizes, outputs):
        checks = [("one result per n", [o[0] for o in outputs] == list(sizes))]
        for n, tri, problems, _, _, _, _, _, total, err in outputs:
            checks.append((f"n{n} triangles", tri == 2 * n * n))
            checks.append((f"n{n} mesh validates", problems == ()))
            checks.append((f"n{n} majorant >= exact error", total >= err > 0.0))
        return checks

    def items(self, outputs):
        return sum(o[1] for o in outputs)

    def counts(self, outputs):
        out = {}
        for n, tri, _, iters, _, _, _, _, total, err in outputs:
            out[f"mesh.triangles.n{n}"] = tri
            out[f"fem.cg_iters.n{n}"] = iters
            out[f"manufactured.eff_index.n{n}"] = total / err
        return out


class OracleCfa:
    """Spectral oracle on the unit square beside the closed-form bound."""

    name = "oracle_cfa"
    seeded = False
    DELTAS = (1e-2, 1.0, 1e2)

    def prepare(self, seed):
        return 128, self.DELTAS

    def warm_inputs(self):
        return 16, (1.0,)

    def steps(self, inputs, out):
        n, deltas = inputs
        m = mesh.build_unit_square(n)
        yield
        for delta in deltas:
            w = weights.DiagonalWeight((1.0, delta))
            est = oracle.estimate_cfa(m, w)
            bound = friedrichs.best_bound(UNIT_BOX, w)
            out.append(
                (delta, m.num_triangles, float(est.lambda_min), float(est.c_estimate),
                 est.iterations, float(est.residual), bound.method, bound.value)
            )
            yield

    def check(self, inputs, outputs):
        checks = [("one result per delta", [o[0] for o in outputs] == list(inputs[1]))]
        for delta, _, _, c, _, _, _, bound in outputs:
            checks.append((f"delta {delta:g}: c_estimate <= bound", c <= bound))
            checks.append((f"delta {delta:g}: c_estimate >= 0.99 bound", c >= 0.99 * bound))
        return checks

    def items(self, outputs):
        return sum(o[1] for o in outputs)

    def counts(self, outputs):
        return {f"oracle.outer_iters.delta{o[0]:g}": o[4] for o in outputs}


# -- bounds_sweep ------------------------------------------------------------

KINDS = ("diag", "full_dd", "full_spd", "psd", "indefinite")
CASES_PER_KIND_AND_DIM = 300
CASES_PER_STEP = 50


def _fmt(values):
    return ",".join(repr(float(v)) for v in values)


def _upper(a):
    d = len(a)
    return [a[i][j] for i in range(d) for j in range(i, d)]


def _rotated(rng, eigenvalues):
    d = len(eigenvalues)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (q * eigenvalues) @ q.T


def _make_case(rng, kind, d, variant):
    """One labelled weight as CLI text, with a box and a coercivity split.

    ``variant`` (0 or 1) picks the diagonal or the full text of the psd and
    indefinite kinds, so every seed makes the same mix of calls.
    """
    lengths = tuple(float(v) for v in 10.0 ** rng.uniform(-1.0, 1.0, d))
    eps = float(rng.uniform(0.1, 0.9))
    if kind == "diag":
        text = "diag:" + _fmt(10.0 ** rng.uniform(-6.0, 6.0, d))
    elif kind == "full_dd":
        # off-diagonal row sums stay below 0.4 of the diagonal: tilde > 0
        diag = 10.0 ** rng.uniform(-3.0, 3.0, d)
        a = np.diag(diag)
        for i in range(d):
            for j in range(i + 1, d):
                off = rng.uniform(-0.4, 0.4) * min(diag[i], diag[j]) / (d - 1)
                a[i, j] = a[j, i] = off
        text = "full:" + _fmt(_upper(a))
    elif kind == "full_spd":
        text = "full:" + _fmt(_upper(_rotated(rng, 10.0 ** rng.uniform(-3.0, 3.0, d))))
    elif kind == "psd":
        entries = 10.0 ** rng.uniform(-6.0, 6.0, d)
        zeros = rng.choice(d, size=int(rng.integers(1, d)), replace=False)
        entries[zeros] = 0.0
        if variant:
            text = "full:" + _fmt(_upper(np.diag(entries)))
        else:
            text = "diag:" + _fmt(entries)
    else:
        if not variant:
            entries = 10.0 ** rng.uniform(-3.0, 3.0, d)
            entries[int(rng.integers(d))] *= -1.0
            text = "diag:" + _fmt(entries)
        else:
            eig = 10.0 ** rng.uniform(-1.0, 3.0, d)
            eig[int(rng.integers(d))] *= -1.0
            text = "full:" + _fmt(_upper(_rotated(rng, eig)))
    return kind, text, lengths, eps


def _attempt(fn, *args):
    """``(status, result)`` of one fria call; a refusal's status is its type."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # refusals are outcomes the check compares
        return type(exc).__name__, None


def _summary(call, status, rep):
    """``(call, status, method, value, seminorm)`` for the output record."""
    if rep is None:
        return call, status, None, None, None
    if isinstance(rep, float):
        return call, status, None, rep, None
    return call, status, rep.method, rep.value, rep.seminorm


def _sweep_case(case):
    kind, text, lengths, eps = case
    status, w = _attempt(weights.parse_weight, text)
    out = [("parse", status, None, None, None)]
    if w is None:
        return tuple(out)
    box = weights.DInterval(lengths)
    diagonal = isinstance(w, weights.DiagonalWeight)
    status, best = _attempt(friedrichs.best_bound, box, w)
    out.append(_summary("best", status, best))
    out.append(_summary("mikhlin", *_attempt(friedrichs.mikhlin_bound, box)))
    out.append(_summary("coarse", *_attempt(friedrichs.coarse_bound, box, w)))
    if diagonal:
        out.append(_summary("thmA", *_attempt(friedrichs.diagonal_bound, box, w)))
        out.append(_summary("semidef", *_attempt(friedrichs.semidef_bound, box, w)))
    else:
        out.append(_summary("thmA2", *_attempt(friedrichs.full_bound, box, w)))
        tilde = weights.tilde_reduction(w)
        out.append(_summary("semidef", *_attempt(friedrichs.semidef_bound, box, tilde)))
    if best is not None:
        out.append(_summary("coercivity", *_attempt(friedrichs.coercivity_threshold, best, eps)))
    if w.d == 3:
        status, inp = _attempt(maxwell.MaxwellInput, box, w)
        arm = maxwell.maxwell_diagonal if diagonal else maxwell.maxwell_full
        for call, fn in (("maxwell_coarse", maxwell.maxwell_coarse), ("maxwell_arm", arm)):
            out.append(_summary(call, *(_attempt(fn, inp) if inp is not None else (status, None))))
    return tuple(out)


def _tilde(a):
    # same operation order as the reduction under test, so signs agree bitwise
    d = len(a)
    if d == 2:
        off = abs(a[0][1])
        return a[0][0] - off, a[1][1] - off
    a12, a13, a23 = abs(a[0][1]), abs(a[0][2]), abs(a[1][2])
    return a[0][0] - (a12 + a13), a[1][1] - (a12 + a23), a[2][2] - (a13 + a23)


def _expected(kind, text):
    """Status each call must return, derived from the label and the text."""
    ok, refused = "ok", "BoundUnavailable"
    head, _, body = text.partition(":")
    values = [float(v) for v in body.split(",")]
    if head == "diag":
        if any(v < 0.0 for v in values):
            return {"parse": "WeightError"}
        d = len(values)
        positive = all(v > 0.0 for v in values)
        out = {
            "parse": ok, "best": ok, "mikhlin": ok, "semidef": ok, "coercivity": ok,
            "coarse": ok if positive else refused,
            "thmA": ok if positive else refused,
            "maxwell_coarse": ok if positive else refused,
            "maxwell_arm": ok,
        }
    else:
        d = 2 if len(values) == 3 else 3
        a = [[0.0] * d for _ in range(d)]
        it = iter(values)
        for i in range(d):
            for j in range(i, d):
                a[i][j] = a[j][i] = next(it)
        t = _tilde(a)
        definite = kind in ("full_dd", "full_spd")
        usable = all(v >= 0.0 for v in t) and any(v > 0.0 for v in t)
        out = {
            "parse": ok, "mikhlin": ok,
            "best": refused if kind == "indefinite" else ok,
            "coarse": ok if definite else refused,
            "thmA2": ok if all(v > 0.0 for v in t) else refused,
            "semidef": ok if usable else refused,
            "maxwell_coarse": ok if definite else refused,
            "maxwell_arm": ok if usable else refused,
        }
        if kind != "indefinite":
            out["coercivity"] = ok
    if d == 2:
        del out["maxwell_coarse"], out["maxwell_arm"]
    return out


class BoundsSweep:
    """Seeded weights through parsing, every bound formula and Maxwell."""

    name = "bounds_sweep"
    seeded = True

    def prepare(self, seed):
        rng = np.random.default_rng(seed)
        cases = [
            _make_case(rng, kind, d, i % 2)
            for kind in KINDS
            for d in (2, 3)
            for i in range(CASES_PER_KIND_AND_DIM)
        ]
        return [cases[i] for i in rng.permutation(len(cases))]

    def warm_inputs(self):
        return self.prepare(0)[:50]

    def steps(self, cases, out):
        for start in range(0, len(cases), CASES_PER_STEP):
            out.extend(_sweep_case(case) for case in cases[start:start + CASES_PER_STEP])
            yield

    def check(self, cases, outputs):
        checks = [("one result per case", len(outputs) == len(cases))]
        for (kind, text, _, eps), result in zip(cases, outputs):
            expected = _expected(kind, text)
            status = {call: s for call, s, _, _, _ in result}
            value = {call: v for call, _, _, v, _ in result}
            checks.append((f"{kind} calls made", sorted(status) == sorted(expected)))
            for call, want in expected.items():
                checks.append((f"{kind} {call} status", status.get(call) == want))
            if status.get("best") != "ok":
                continue
            best = value["best"]
            cands = [value[c] for c in ("coarse", "thmA", "thmA2", "semidef") if status.get(c) == "ok"]
            checks.append((f"{kind} best is the smallest candidate", all(best <= v for v in cands)))
            seminorm = next(semi for call, _, _, _, semi in result if call == "best")
            checks.append((f"{kind} best seminorm flag", seminorm == (kind == "psd")))
            if kind == "diag":
                checks.append(("diagonal <= coarse", value["thmA"] <= value["coarse"]))
                if "maxwell_arm" in value:
                    ok = value["maxwell_arm"] <= value["maxwell_coarse"]
                    checks.append(("maxwell diagonal <= coarse", ok))
            checks.append((f"{kind} coercivity threshold", value["coercivity"] == -eps / (best * best)))
        return checks

    def items(self, outputs):
        return sum(len(result) for result in outputs)

    def counts(self, outputs):
        refused = sum(1 for result in outputs for o in result if o[1] != "ok")
        return {"bounds.calls": self.items(outputs), "bounds.refusals": refused}


WORKLOADS = {w.name: w for w in (Table2Aniso(), ManufacturedSquare(), OracleCfa(), BoundsSweep())}
