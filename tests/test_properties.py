"""Property tests over symmetric weights of extreme magnitude.

Entries are zeros, subnormals or +-10^u with u uniform in (-300, 300).
Every ``bounds`` call through the CLI must end with exit code 0, 1 or 2,
print finite JSON on success and one ``fria:`` line otherwise; so must an
``experiment table2`` run on L0 whose diagonal or rotated weight has
eigenvalues 10^u, u uniform in (-300, 300), and a diagonal one must solve.

The spectral oracle's constant estimate must stay below the best bound of
the enclosing unit box for diagonal and rotated weights with eigenvalues
10^u, u uniform in (-300, 300); a rotated weight whose rounded entries
leave no bound is skipped.
"""

import contextlib
import functools
import io
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fria.cli import main  # noqa: E402
from fria.friedrichs import BoundUnavailable, best_bound  # noqa: E402
from fria.mesh import build_lshape, build_unit_square  # noqa: E402
from fria.oracle import estimate_cfa  # noqa: E402
from fria.weights import DiagonalWeight, DInterval, FullWeight  # noqa: E402

SIGN = st.sampled_from([-1.0, 1.0])
ENTRY = st.one_of(
    st.just(0.0),
    st.builds(lambda s, u: s * 10.0**u, SIGN, st.floats(-300.0, 300.0)),
    st.builds(lambda s, k: s * k * 5e-324, SIGN, st.integers(1, 2**52 - 1)),
)
LENGTH = st.builds(lambda u: 10.0**u, st.floats(-160.0, 160.0))


def upper(d):
    return st.lists(ENTRY, min_size=d * (d + 1) // 2, max_size=d * (d + 1) // 2)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_outcome(code, out, err):
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        assert "NaN" not in out and "Infinity" not in out
        json.loads(out)
    else:
        assert out == ""
        assert err.startswith("fria: ") and err.count("\n") == 1


def text(values):
    return "full:" + ",".join(repr(v) for v in values)


PROPS = settings(max_examples=300, deadline=None, derandomize=True)


@PROPS
@given(st.integers(2, 3).flatmap(upper))
def test_eigenvalues_ascending(values):
    lam = FullWeight.from_upper(values).eigenvalues
    assert all(a <= b for a, b in zip(lam, lam[1:]))


@PROPS
@given(
    st.integers(2, 3).flatmap(lambda d: st.tuples(upper(d), st.lists(LENGTH, min_size=d, max_size=d))),
    st.sampled_from(["auto", "mikhlin", "coarse", "thmA", "thmA2", "semidef"]),
)
def test_friedrichs_cli_outcome(case, method):
    values, lengths = case
    argv = ["bounds", "friedrichs", "--lengths", ",".join(repr(l) for l in lengths),
            "--weight", text(values), "--method", method]
    check_outcome(*run_cli(argv))


@PROPS
@given(upper(3), st.lists(LENGTH, min_size=3, max_size=3), st.sampled_from(["auto", "coarse"]))
def test_maxwell_cli_outcome(values, lengths, method):
    argv = ["bounds", "maxwell", "--lengths", ",".join(repr(l) for l in lengths),
            "--eps", text(values), "--method", method]
    check_outcome(*run_cli(argv))


EIGENVALUE = st.builds(lambda u: 10.0**u, st.floats(-300.0, 300.0))


def rotated(lam1, lam2, angle):
    c, s = math.cos(angle), math.sin(angle)
    off = (lam1 - lam2) * c * s
    return FullWeight(((lam1 * c * c + lam2 * s * s, off), (off, lam1 * s * s + lam2 * c * c)))


@functools.cache
def oracle_meshes():
    return build_unit_square(8), build_lshape(0)


@PROPS
@given(
    st.one_of(
        st.builds(lambda a, b: DiagonalWeight((a, b)), EIGENVALUE, EIGENVALUE),
        st.builds(rotated, EIGENVALUE, EIGENVALUE, st.floats(0.0, math.pi)),
    )
)
def test_oracle_below_best_bound(w):
    try:
        bound = best_bound(DInterval((1.0, 1.0)), w).value
    except BoundUnavailable:
        reject()  # eigenvalues 1e16 apart and more round to a singular matrix
    for mesh in oracle_meshes():
        assert estimate_cfa(mesh, w).c_estimate <= bound


def alpha_text(w):
    (a, b), (_, c) = w.matrix
    return text((a, b, c))


@PROPS
@given(
    st.one_of(
        st.builds(lambda a, b: f"diag:{a!r},{b!r}", EIGENVALUE, EIGENVALUE),
        st.builds(
            lambda a, b, angle: alpha_text(rotated(a, b, angle)),
            EIGENVALUE, EIGENVALUE, st.floats(0.0, math.pi),
        ),
    )
)
def test_experiment_cli_outcome(alpha):
    argv = ["experiment", "table2", "--levels", "0", "--alpha", alpha, "--out", "json"]
    code, out, err = run_cli(argv)
    check_outcome(code, out, err)
    # a positive diagonal weight is solved at any magnitude
    assert code == 0 or not alpha.startswith("diag:")
