"""tools/write_bench.py: its benchmark run helper and its code-line count."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "write_bench.py"


@pytest.fixture(scope="module")
def write_bench():
    spec = importlib.util.spec_from_file_location("write_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_run(monkeypatch, write_bench, lines):
    argvs = []
    monkeypatch.setattr(
        write_bench, "_stdout", lambda *argv: argvs.append(argv) or "\n".join(lines) + "\n"
    )
    return argvs


def test_a_correct_run_gives_its_result_and_counts(write_bench, monkeypatch):
    result = {"correct": True, "attempted": 6, "failed": 0, "metrics": {}}
    argvs = _fake_run(
        monkeypatch,
        write_bench,
        [
            "workload oracle_cfa seed 0 seconds 10 trace 0",
            "count oracle.outer_iters.delta0.01 26",
            "count oracle.outer_iters.delta1 12",
            "checks attempted 6 failed 0 fail_frac 0",
            json.dumps(result),
        ],
    )
    counts = {"oracle.outer_iters.delta0.01": 26, "oracle.outer_iters.delta1": 12}
    assert write_bench._bench("oracle_cfa") == (result, counts)
    [argv] = argvs
    assert argv[1:] == ("perfbench/run.py", "--workload", "oracle_cfa", "--trace", "0")


def test_a_failed_run_stops_the_writer(write_bench, monkeypatch):
    result = {"correct": False, "attempted": 6, "failed": 2, "metrics": {}}
    _fake_run(monkeypatch, write_bench, ["FAILED delta 1: c_estimate <= bound", json.dumps(result)])
    with pytest.raises(SystemExit, match=r"^oracle_cfa: 2 checks failed$"):
        write_bench._bench("oracle_cfa")


SOURCE = '''"""Module docstring
on two lines."""

# a comment
import math


class Box:
    """One-line class docstring."""

    side = 1.0  # a trailing comment leaves the line code


def area(box):
    """Function docstring
    on several
    lines."""
    # an indented comment

    "a bare string expression, not a docstring"
    return math.prod((box.side, box.side))
'''


def test_code_lines_skip_blanks_comments_and_docstrings(write_bench, tmp_path):
    path = tmp_path / "source.py"
    path.write_text(SOURCE)
    # import, class, side, def, the bare string, return
    assert write_bench._code_lines(path) == 6
