"""Golden CLI corpus: stdout bytes and exit codes of fixed command lines.

The expected outputs in ``golden_cli.json`` pin the behaviour of the
``bounds``, ``table`` and ``oracle`` verbs byte for byte.  After an
intended output change, re-record with ``python tests/test_cli_golden.py``
from the repository root and state the change in the commit message.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden_cli.json")

FRIEDRICHS_METHODS = ("auto", "mikhlin", "coarse", "thmA", "thmA2", "semidef")
# diagonal, full with positive tilde, exactly diagonal full, positive
# semi-definite, full definite with a nonpositive tilde entry, indefinite
WEIGHTS_2D = (
    None, "diag:1,1e-4", "diag:2,3", "diag:0,1", "diag:0,0",
    "full:2,0.5,1", "full:1,0.9,1", "full:1,0,1e-4", "full:1,0,0",
    "full:1,1.5,3", "full:2,1,1", "full:1,1,1", "full:1,2,1", "full:-1,0,-1",
)
WEIGHTS_3D = (
    None, "diag:1,1,1e-6", "diag:1,2,3", "diag:0,0,1",
    "full:3,1,1,300,1,3", "full:2,1,0,2,0,1", "full:1,0,0,1,0,0",
    "full:4,1,1,4,1,4", "full:1,0.5,0.5,1,0.5,1", "full:2,1,0,1,0,1",
    "full:1,2,0,1,0,1",
)
EPS = (
    None, "diag:1,1,1e-6", "diag:1,1,0", "diag:0,0,0", "full:3,1,1,300,1,3",
    "full:1,0,0,1,0,0", "full:4,1,1,4,1,4", "full:2,1,0,1,0,1", "full:1,2,0,1,0,1",
    "full:1,2,0,5,0,1",  # definite, tilde (-1, 3, 1): only the coarse arm applies
)
ORACLE_ALPHAS = ("diag:1,1", "diag:1,0.01", "full:2,0.5,1", "diag:1,0", "full:1,0,0")


def _cases():
    cases = []
    for lengths_set, weights in ((("1,1", "1.5,0.5"), WEIGHTS_2D), (("1,1,1", "2,1,0.5"), WEIGHTS_3D)):
        for lengths in lengths_set:
            for weight in weights:
                for method in FRIEDRICHS_METHODS:
                    argv = ["bounds", "friedrichs", "--lengths", lengths]
                    if weight is not None:
                        argv += ["--weight", weight]
                    cases.append(argv + ["--method", method])
    for lengths in ("1,1,1", "2,1,0.5"):
        for eps in EPS:
            for method in ("auto", "coarse"):
                for extra in ([], ["--diam", "1.5"], ["--diam", "1.5", "--eps-max", "400"]):
                    argv = ["bounds", "maxwell", "--lengths", lengths]
                    if eps is not None:
                        argv += ["--eps", eps]
                    cases.append(argv + ["--method", method] + extra)
    cases += [["table", "1"], ["table", "3"]]
    for alpha in ORACLE_ALPHAS:
        cases.append(["oracle", "cfa", "--n", "8", "--alpha", alpha])
    cases.append(["oracle", "cfa", "--domain", "lshape", "--level", "0"])
    return cases


def _run(argv):
    from fria.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def golden():
    return {tuple(e["argv"]): e for e in json.loads(GOLDEN.read_text())}


def test_corpus_matches_case_list(golden):
    assert sorted(golden) == sorted(tuple(argv) for argv in _cases())


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_golden(golden, argv):
    entry = golden[tuple(argv)]
    code, out, err = _run(argv)
    assert (code, out) == (entry["code"], entry["stdout"])
    if code != 0:
        assert err.startswith("fria: ") and err.count("\n") == 1


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    records = []
    for argv in _cases():
        code, out, _ = _run(argv)
        records.append({"argv": argv, "code": code, "stdout": out})
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"recorded {len(records)} cases in {GOLDEN}")
