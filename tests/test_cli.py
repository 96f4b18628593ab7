import hashlib
import json
import math
import tracemalloc
import warnings

import pytest

import fria
from fria import majorant
from fria.cli import main

IDENT = fria.DiagonalWeight((1.0, 1.0))
ANISO = fria.DiagonalWeight((1.0, 1e-4))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTables:
    def test_table1_values(self, capsys):
        code, out, _ = run(capsys, "table", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("delta,1e-06")
        coarse = lines[1].split(",")
        thma = lines[2].split(",")
        assert coarse[0] == "coarse" and coarse[1] == "225.07908"
        assert thma[0] == "thmA" and thma[1] == "0.31831"
        assert coarse[1:] == [
            "225.07908", "22.50791", "2.25079", "0.22508", "0.22508", "0.22508", "0.22508",
        ]
        assert thma[1:] == [
            "0.31831", "0.31829", "0.31673", "0.22508", "0.03167", "0.00318", "0.00032",
        ]

    def test_table3_values(self, capsys):
        code, out, _ = run(capsys, "table", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].split(",")[1:] == ["183.77630", "18.37763", "1.83776", "0.55133"]
        assert lines[2].split(",")[1:] == ["0.55133"] * 4

    def test_table_to_file(self, capsys, tmp_path):
        target = tmp_path / "t1.csv"
        code, out, _ = run(capsys, "table", "1", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("delta,")


class TestBounds:
    def test_semidefinite_appendix_case(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "friedrichs", "--lengths", "2,2,2", "--weight", "diag:0,0,1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "semidef"
        assert payload["value"] == pytest.approx(2.0 / math.pi, rel=1e-11)
        assert payload["seminorm"] is True

    def test_default_weight_is_identity(self, capsys):
        code, out, _ = run(capsys, "bounds", "friedrichs", "--lengths", "1,1")
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == pytest.approx(1.0 / (math.pi * math.sqrt(2.0)), rel=1e-11)
        assert payload["inputs"]["weight"] == {"diag": [1.0, 1.0]}

    def test_explicit_method(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "friedrichs",
            "--lengths", "1,1", "--weight", "diag:1,1e-6", "--method", "coarse",
        )
        payload = json.loads(out)
        assert payload["method"] == "coarse"
        assert payload["value"] == pytest.approx(225.0790790, rel=1e-9)

    def test_maxwell(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "maxwell",
            "--lengths", "1,1,1", "--eps", "diag:1,1,1e-6",
            "--diam", "1.7320508", "--eps-max", "1",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["value"] == pytest.approx(math.sqrt(3.0) / math.pi, rel=1e-7)

    def test_maxwell_huge_permittivity_keeps_poincare_arm(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "maxwell",
            "--lengths", "1,1,1", "--eps", "full:1e160,1e159,0,1e160,0,1e160",
        )
        assert code == 0
        payload = json.loads(out)
        eps_max = payload["inputs"]["eps_max"]
        assert eps_max == pytest.approx(1.1e160, rel=1e-12)
        assert payload["value"] >= math.sqrt(eps_max) * math.sqrt(3.0) / math.pi * (1.0 - 1e-11)

    def test_deterministic_output(self, capsys):
        argv = ["bounds", "friedrichs", "--lengths", "1,1", "--weight", "diag:1,0.01"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_json_round_trip(self, capsys):
        argv = ["bounds", "friedrichs", "--lengths", "1.5,2.5", "--weight", "diag:2,3"]
        _, first, _ = run(capsys, *argv)
        payload = json.loads(first)
        lengths = ",".join(repr(v) for v in payload["inputs"]["lengths"])
        weight = "diag:" + ",".join(repr(v) for v in payload["inputs"]["weight"]["diag"])
        _, second, _ = run(capsys, "bounds", "friedrichs", "--lengths", lengths, "--weight", weight)
        assert first == second


class TestErrors:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bounds", "friedrichs", "--lengths", "1,1", "--bogus")
        assert code == 1
        assert "bogus" in err

    def test_bad_weight_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bounds", "friedrichs", "--lengths", "1,1", "--weight", "diag:x")
        assert code == 1
        assert "--weight" in err

    def test_dimension_mismatch(self, capsys):
        code, _, err = run(
            capsys, "bounds", "friedrichs", "--lengths", "1,1", "--weight", "diag:1,1,1"
        )
        assert code == 1
        assert "dimensional" in err

    def test_inapplicable_bound_is_computational_error(self, capsys):
        code, _, err = run(
            capsys, "bounds", "friedrichs",
            "--lengths", "1,1", "--weight", "diag:0,1", "--method", "coarse",
        )
        assert code == 2
        assert "coarse" in err

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys, "bounds")
        assert code == 1

    def test_empty_level_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, "experiment", "table2", "--levels", "3:1")
        assert code == 1 and out == ""
        assert "--levels" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "friedrichs", "--lengths", "1,1", "--out", "/nonexistent/dir/x.json"],
            ["table", "1", "--out", "."],
            ["experiment", "table2", "--levels", "0", "--out", "/proc/nope.json"],
            ["experiment", "table2", "--levels", "0", "--solutions", "/etc/passwd"],
            ["experiment", "table2", "--levels", "0:9"],
            ["experiment", "table2", "--levels", "-1"],
        ],
    )
    def test_bad_path_or_level_exits_before_any_work(self, capsys, monkeypatch, argv):
        from fria import majorant

        monkeypatch.setattr(majorant, "build_lshape", None)  # no mesh may be built
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("fria: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_failed_command_keeps_existing_output(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("kept\n")
        argv = ["experiment", "table2", "--levels", "0", "--f", "1e300", "--out", str(path)]
        assert run(capsys, *argv)[0] == 2
        assert path.read_text() == "kept\n"
        assert run(capsys, "table", "1", "--out", str(path))[0] == 0
        assert path.read_text() == run(capsys, "table", "1")[1]

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["--lengths", "1e-200,1"], 1),
            (["--lengths", "1e200,1e200", "--weight", "diag:1e-300,1"], 1),
            (["--lengths", "1e150,1e150", "--weight", "diag:1e-300,1e-300"], 2),
        ],
    )
    def test_float_range_is_one_line_error(self, capsys, argv, want):
        code, out, err = run(capsys, "bounds", "friedrichs", *argv)
        assert code == want and out == ""
        assert err.startswith("fria: ") and err.count("\n") == 1

    @pytest.mark.parametrize("alpha", ["full:1,2,1", "diag:1,0"])
    def test_experiment_rejects_non_definite_alpha(self, capsys, monkeypatch, alpha):
        from fria import majorant

        monkeypatch.setattr(majorant, "build_lshape", None)  # no mesh may be built
        code, out, err = run(capsys, "experiment", "table2", "--levels", "0", "--alpha", alpha)
        assert code == 1 and out == ""
        assert "--alpha" in err and "positive definite" in err and err.count("\n") == 1

    def test_overflowing_weight_is_one_line_error(self, capsys):
        code, out, err = run(
            capsys, "bounds", "friedrichs", "--lengths", "0.296,0.676,0.98",
            "--weight", "full:-1e191,-1e108,1e110,1.16,-0.634,2.54", "--method", "coarse",
        )
        assert code == 2 and out == ""
        assert err.startswith("fria: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "maxwell", "--lengths", "1,1,1", "--eps-max", "nan"],
            ["bounds", "maxwell", "--lengths", "1,1,1", "--eps-max", "inf"],
            ["experiment", "table2", "--levels", "0", "--constants", "nan,1"],
            ["experiment", "table2", "--levels", "0", "--constants", "inf,1"],
            ["experiment", "table2", "--levels", "0", "--constants", "a,1"],
            ["experiment", "table2", "--levels", "0", "--f", "nan"],
            ["experiment", "table2", "--levels", "0", "--f", "inf"],
        ],
    )
    def test_bad_number_is_usage_error(self, capsys, monkeypatch, argv):
        from fria import majorant

        monkeypatch.setattr(majorant, "build_lshape", None)  # no mesh may be built
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("fria: ") and err.count("\n") == 1

    @pytest.mark.parametrize("f", ["1e300", "1e155"])
    def test_huge_load_is_one_line_error(self, capsys, f):
        # 1e300 overflows CG's inner products, 1e155 the majorant norms
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code, out, err = run(capsys, "experiment", "table2", "--levels", "0", "--f", f)
        assert code == 2 and out == ""
        assert err.startswith("fria: ") and err.count("\n") == 1

    def test_oracle_three_dimensional_alpha_builds_no_mesh(self, capsys, monkeypatch):
        from fria import mesh

        monkeypatch.setattr(mesh, "build_unit_square", None)  # no mesh may be built
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "oracle", "cfa", "--n", "4096", "--alpha", "diag:1,1,1")
        assert code == 1 and out == ""
        assert err == "fria: --alpha must be 2-dimensional\n"

    @pytest.mark.parametrize("alpha", ["full:1,2,1", "diag:0,0", "full:-1,0,-1"])
    def test_oracle_refuses_weight_without_bound(self, capsys, monkeypatch, alpha):
        from fria import mesh, oracle

        monkeypatch.setattr(mesh, "build_unit_square", None)  # no mesh may be built
        monkeypatch.setattr(oracle, "estimate_cfa", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "oracle", "cfa", "--n", "8", "--alpha", alpha)
        assert code == 2 and out == ""
        assert err.startswith("fria: no bound applies: ") and err.count("\n") == 1
        _, _, bounds_err = run(
            capsys, "bounds", "friedrichs", "--lengths", "1,1", "--weight", alpha
        )
        assert err == bounds_err

    @pytest.mark.parametrize("alpha", ["diag:1e-300,1e-300", "diag:1e300,1e300"])
    def test_oracle_extreme_magnitude(self, capsys, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "oracle", "cfa", "--n", "8", "--alpha", alpha)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert 0.0 < payload["c_estimate"] < payload["bound"]

    @pytest.mark.parametrize(
        "size",
        [
            ["--domain", "lshape", "--level", "9"],
            ["--domain", "lshape", "--level", "-1"],
            ["--n", "0"],
            ["--n", "-3"],
            ["--n", "5000"],
        ],
    )
    def test_oracle_bad_mesh_size_is_usage_error(self, capsys, size):
        code, out, err = run(capsys, "oracle", "cfa", *size)
        assert code == 1 and out == ""
        assert err.startswith("fria: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--domain", "lshape", "--n", "5000"],
            ["--domain", "lshape", "--n", "8"],
            ["--n", "8", "--level", "99"],
            ["--domain", "square", "--level", "0"],
        ],
    )
    def test_oracle_refuses_other_domains_size_flag(self, capsys, monkeypatch, flags):
        from fria import mesh

        monkeypatch.setattr(mesh, "build_unit_square", None)  # no mesh may be built
        monkeypatch.setattr(mesh, "build_lshape", None)
        code, out, err = run(capsys, "oracle", "cfa", *flags)
        assert code == 1 and out == ""
        assert err.startswith("fria: ") and "does not apply" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("message", ["", "Unable to allocate 144. MiB"], ids=["bare", "numpy"])
    def test_out_of_memory_is_one_line_error(self, capsys, monkeypatch, tmp_path, message):
        from fria import majorant

        def exhausted(level):
            raise MemoryError(message)

        monkeypatch.setattr(majorant, "build_lshape", exhausted)
        path = tmp_path / "rows.csv"
        path.write_bytes(b"kept\n")
        code, out, err = run(capsys, "experiment", "table2", "--levels", "0", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("fria: ") and err.count("\n") == 1 and err != "fria: \n"
        assert message in err
        assert path.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("levels,available", [("8", 7.7e9), ("3:5", 1e8)])
    def test_level_that_cannot_fit_is_refused_before_any_work(
        self, capsys, monkeypatch, tmp_path, levels, available
    ):
        from fria import cli, majorant

        monkeypatch.setattr(cli, "_available_bytes", lambda: available)
        monkeypatch.setattr(majorant, "build_lshape", None)  # no mesh may be built
        path = tmp_path / "rows.csv"
        path.write_bytes(b"kept\n")
        solutions = tmp_path / "solutions"
        code, out, err = run(
            capsys, "experiment", "table2", "--levels", levels,
            "--out", str(path), "--solutions", str(solutions),
        )
        finest = levels.split(":")[-1]
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"fria: level {finest} needs about ") and "GiB" in err
        assert f"{384 * 4 ** int(finest)} triangles" in err
        assert path.read_bytes() == b"kept\n" and not solutions.exists()

    @pytest.mark.parametrize(
        "size, line",
        [
            (["--n", "4096"], "n = 4096 needs about 15.0 GiB (480 B x 33554432 triangles)"),
            (
                ["--domain", "lshape", "--level", "8"],
                "level 8 needs about 11.2 GiB (480 B x 25165824 triangles)",
            ),
        ],
        ids=["n4096", "L8"],
    )
    def test_oracle_size_that_cannot_fit_is_refused_before_any_mesh(
        self, capsys, monkeypatch, tmp_path, size, line
    ):
        from fria import cli, mesh, oracle

        monkeypatch.setattr(cli, "_available_bytes", lambda: 7.7e9)
        monkeypatch.setattr(mesh, "build_unit_square", None)  # no mesh may be built
        monkeypatch.setattr(mesh, "build_lshape", None)
        monkeypatch.setattr(oracle, "estimate_cfa", None)
        path = tmp_path / "estimate.json"
        path.write_bytes(b"kept\n")
        code, out, err = run(capsys, "oracle", "cfa", *size, "--out", str(path))
        assert code == 2 and out == ""
        assert err == f"fria: {line}, 7.2 GiB available\n"
        assert path.read_bytes() == b"kept\n"

    def test_oracle_negative_n_is_usage_error_before_any_mesh(self, capsys, monkeypatch):
        from fria import mesh

        monkeypatch.setattr(mesh, "build_unit_square", None)  # no mesh may be built
        monkeypatch.setattr(mesh, "build_lshape", None)
        code, out, err = run(capsys, "oracle", "cfa", "--n", "-100000")
        assert (code, out, err) == (1, "", "fria: n must be at least 1, got -100000\n")

    def test_available_memory_falls_back_to_free_pages(self, tmp_path):
        from fria.cli import _available_bytes

        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:  8000 kB\nMemAvailable:  6000 kB\n")
        assert _available_bytes(str(meminfo)) == 6000 * 1024
        assert 0 < _available_bytes(str(tmp_path / "missing")) < math.inf

    def test_mesh_without_interior_is_computational_error(self, capsys):
        code, out, err = run(capsys, "oracle", "cfa", "--n", "1")
        assert code == 2 and out == ""
        assert "interior" in err and err.count("\n") == 1


class TestExperiment:
    def test_csv_header_and_row(self, capsys):
        code, out, _ = run(capsys, "experiment", "table2", "--levels", "0:0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level,elements,M_coarse,M_thmA"
        fields = lines[1].split(",")
        assert fields[:2] == ["0", "384"]
        assert float(fields[2]) == pytest.approx(18.4444, abs=5e-4)
        assert float(fields[3]) == pytest.approx(1.5563, abs=5e-4)

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "experiment", "table2", "--levels", "0:0", "--out", "json")
        rows = json.loads(out)
        assert rows[0]["level"] == 0
        assert rows[0]["elements"] == 384
        assert set(rows[0]) == {"level", "elements", "M_coarse", "M_thmA"}

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.json"
        code, out, _ = run(
            capsys, "experiment", "table2", "--levels", "0:0", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())[0]["elements"] == 384

    def test_solution_export(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "experiment", "table2", "--levels", "0:0",
            "--solutions", str(tmp_path / "sols"),
        )
        assert code == 0
        lines = (tmp_path / "sols" / "solution_level0.csv").read_text().splitlines()
        assert lines[0] == "vertex,value"
        assert len(lines) == 1 + 225
        # boundary vertex 0 sits at the domain corner, value exactly zero
        assert lines[1] == "0,0"

    def test_solution_export_keeps_its_bytes(self, capsys, tmp_path):
        # the digest of the file written from numpy scalars, one line at a time
        code, _, _ = run(
            capsys, "experiment", "table2", "--levels", "1", "--solutions", str(tmp_path)
        )
        data = (tmp_path / "solution_level1.csv").read_bytes()
        assert code == 0 and len(data) == 14444 and data.count(b"\n") == 1 + 833
        assert hashlib.sha256(data).hexdigest() == (
            "b0b495a853271dc4edf74eafe82be32c0adbcbd8803a134ab4aa3185040007b2"
        )

    @pytest.mark.parametrize(
        "constants, header",
        [
            ("1,2,3", "M_1,M_2,M_3"),
            # only the reference constants, in their order, are named by formula
            ("0.31829,22.50791", "M_1,M_2"),
            ("1,2", "M_1,M_2"),
        ],
    )
    def test_custom_constants_column_names(self, capsys, constants, header):
        code, out, _ = run(
            capsys, "experiment", "table2", "--levels", "0:0", "--constants", constants
        )
        assert code == 0
        assert out.splitlines()[0] == "level,elements," + header

    def test_tiny_alpha_is_solved(self, capsys):
        # the determinant 1e-600 underflows; the inverse 1e300 does not
        code, out, err = run(
            capsys, "experiment", "table2", "--levels", "0:1", "--alpha", "diag:1e-300,1e-300"
        )
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[:2] for r in rows] == [["0", "384"], ["1", "1536"]]
        assert all(math.isfinite(float(v)) and float(v) > 0.0 for r in rows for v in r[2:])

    def test_huge_alpha_is_solved(self, capsys):
        # g alpha g^T overflows unless the weight is scaled into float range first
        code, out, err = run(
            capsys, "experiment", "table2", "--levels", "0", "--alpha", "diag:1e306,1e306"
        )
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[:2] for r in rows] == [["0", "384"]]
        assert all(math.isfinite(float(v)) and float(v) > 0.0 for r in rows for v in r[2:])

    def test_subnormal_alpha_is_one_line_error(self, capsys):
        # the stiffness pivots are subnormal, so their inverses overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code, out, err = run(
                capsys, "experiment", "table2", "--levels", "0", "--alpha", "diag:1e-310,1e-310"
            )
        assert code == 2 and out == ""
        assert err.startswith("fria: ") and err.count("\n") == 1

    def test_bad_levels(self, capsys):
        code, _, err = run(capsys, "experiment", "table2", "--levels", "a:b")
        assert code == 1


class TestOracle:
    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "cfa", "--domain", "square", "--n", "16", "--alpha", "diag:1,0.01"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"lambda_min", "c_estimate", "bound", "margin"}
        assert payload["margin"] > 0.0
        assert payload["bound"] == pytest.approx(
            1.0 / (math.pi * math.sqrt(1.01)), rel=1e-9
        )

    def test_lshape_domain(self, capsys):
        code, out, _ = run(capsys, "oracle", "cfa", "--domain", "lshape", "--level", "0")
        assert code == 0
        payload = json.loads(out)
        # strict subdomain of the unit square: larger eigenvalue, positive margin
        assert payload["lambda_min"] > 2.0 * math.pi**2
        assert payload["margin"] > 0.0



class TestRefusalFigures:
    """The bytes per triangle the CLI charges a run before it starts stay at
    or above the tracemalloc peak that run reaches, per triangle of its mesh."""

    # Fixed costs dominate small meshes (the oracle reads 505 B at n = 64),
    # and a refusal matters only for large ones, so the sizes are L4 and
    # n = 128.  If a peak rises above its figure, re-measure and raise the
    # figure; do not move to a size that happens to pass.
    @pytest.mark.parametrize(
        "figure, triangles, work",
        [
            (
                "_EXPERIMENT_BYTES_PER_TRIANGLE",
                384 * 4**4,  # 317 measured
                lambda: fria.run_refinement_experiment(
                    [4], ANISO, 1.0, majorant.TABLE2_CONSTANTS
                ),
            ),
            (
                "_ORACLE_BYTES_PER_TRIANGLE",
                384 * 4**4,  # 470 measured
                lambda: fria.estimate_cfa(fria.build_lshape(4), IDENT),
            ),
            (
                "_ORACLE_BYTES_PER_TRIANGLE",
                2 * 128 * 128,  # 473 measured
                lambda: fria.estimate_cfa(fria.build_unit_square(128), IDENT),
            ),
        ],
        ids=["experiment-L4", "oracle-L4", "oracle-n128"],
    )
    def test_peak_within_the_refusal_figure(self, figure, triangles, work):
        import scipy.sparse  # noqa: F401  (loaded before the count, as in a long run)

        from fria import cli

        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            work()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak / triangles <= getattr(cli, figure)
