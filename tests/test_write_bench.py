"""tools/write_bench.py: its benchmark run helper, its pair arithmetic, its
child launcher, its per-stage memory record and its code-line count."""

import contextlib
import importlib.util
import json
import re
import subprocess
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
        write_bench,
        "_stdout",
        lambda *argv, **where: argvs.append(argv) or "\n".join(lines) + "\n",
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


def _runs(**metrics):
    """Fake run results, one per position of the value lists."""
    count = len(next(iter(metrics.values())))
    return [
        {
            "correct": True,
            "attempted": 5,
            "failed": 0,
            "metrics": {m: {"value": v[i], "unit": "u"} for m, v in metrics.items()},
        }
        for i in range(count)
    ]


def test_pairs_give_medians_quartiles_and_wins(write_bench):
    parent = _runs(wall_s=[1.0, 2.0, 3.0, 4.0, 5.0], items_per_s=[10.0, 10.0, 10.0, 10.0, 10.0])
    change = _runs(wall_s=[0.5, 2.5, 2.0, 4.0, 4.5], items_per_s=[11.0, 9.0, 10.0, 12.0, 13.0])
    record = write_bench._pairs(parent, change, {"wall_s": "lower", "items_per_s": "higher"})
    assert record["wall_s"] == {
        "parent": {"median": 3.0, "q1": 2.0, "q3": 4.0},
        "change": {"median": 2.5, "q1": 2.0, "q3": 4.0},
        # 0.5 < 1 and 2 < 3 and 4.5 < 5 win; 2.5 > 2 loses; a tie is no win
        "wins": 3,
        "better": "lower",
    }
    assert record["items_per_s"]["wins"] == 3
    assert record["items_per_s"]["change"] == {"median": 11.0, "q1": 10.0, "q3": 12.0}


def test_pairs_report_progress_on_stderr_only(write_bench, monkeypatch, capsys, tmp_path):
    @contextlib.contextmanager
    def worktree(rev):
        yield tmp_path

    written = []
    result = _runs(wall_s=[1.0])[0]
    monkeypatch.setattr(write_bench, "_worktree", worktree)
    monkeypatch.setattr(write_bench, "_bench", lambda workload, tree: (result, {}))
    monkeypatch.setattr(write_bench, "_stdout", lambda *argv, **where: "0123abc\n")
    monkeypatch.setattr(write_bench, "_write", lambda tree, *args, **extra: written.append(tree))
    write_bench._against("HEAD~1")
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == write_bench.PAIRS
    for i, line in enumerate(lines, 1):
        assert re.fullmatch(rf"pair {i} of {write_bench.PAIRS} done, \d+ s", line)
    assert written == [tmp_path, write_bench.ROOT]


def test_quartiles_interpolate_between_runs(write_bench):
    assert write_bench._spread([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}


def test_medians_keep_the_shape_of_a_result(write_bench):
    runs = _runs(wall_s=[3.0, 1.0, 2.0], peak_rss_mb=[70.0, 72.0, 71.0])
    assert write_bench._medians(runs) == {
        "correct": True,
        "runs": 3,
        "metrics": {
            "wall_s": {"value": 2.0, "unit": "u"},
            "peak_rss_mb": {"value": 71.0, "unit": "u"},
        },
    }


def test_a_childs_peak_is_its_own(write_bench):
    # a child forked from this process would start at this process's RSS;
    # through the launcher it starts at the launcher's few MB
    fresh = write_bench._python_once("-c", "pass")
    ballast = b"\x01" * (64 * 2**20)
    loaded = write_bench._python_once("-c", "pass")
    assert len(ballast) == 64 * 2**20
    assert abs(loaded["peak_rss_mb"] - fresh["peak_rss_mb"]) <= 1.0
    assert loaded["peak_rss_mb"] < 40


def test_a_failing_child_raises(write_bench):
    with pytest.raises(subprocess.CalledProcessError):
        write_bench._python_once("-c", "raise SystemExit(3)")


def test_stage_peaks_are_recorded_per_stage_with_the_mesh(write_bench, monkeypatch):
    # the level-0 run stands in for level 4; the timed measurements are stubbed
    for name in ("_cg_iterations", "_table2_l5_stages_s", "_oracle_setup_s", "_mesh_layer_s"):
        monkeypatch.setattr(write_bench, name, dict)
    monkeypatch.setattr(write_bench, "_calibration_s", float)
    stages = write_bench._table2_stage_peaks_b_per_tri
    monkeypatch.setattr(write_bench, "_table2_stage_peaks_b_per_tri", lambda: stages(0))
    peaks = write_bench._in_process()["table2_l4_stage_peaks_b_per_tri"]
    assert list(peaks) == ["build", "solve", "rt_average", "norms"]
    # each stage's count starts before the build, so none reads below the
    # mesh it keeps: the vertices alone are 225 x 16 B over 384 triangles
    assert min(peaks.values()) > 225 * 16 / 384


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


def test_code_lines_by_module_count_each_package_file(write_bench, tmp_path):
    package = tmp_path / "src" / "fria"
    package.mkdir(parents=True)
    (package / "box.py").write_text(SOURCE)
    (package / "__init__.py").write_text('"""Package."""\n\nfrom .box import Box  # re-export\n')
    (package / "notes.txt").write_text("not python\n")
    (tmp_path / "src" / "other.py").write_text("x = 1\n")  # outside the package
    assert write_bench._code_lines_by_module(tmp_path) == {"__init__": 1, "box": 6}
