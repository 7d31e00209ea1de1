import csv
import dataclasses
import json
import re
import warnings

import pytest

from dpkmeans import cli
from dpkmeans.canopy import CanopyParams
from dpkmeans.cli import main
from dpkmeans.engine import Variant
from dpkmeans.evaluation import RunReport
from dpkmeans.planner import PlannerInputs

BLOOD_SAMPLE = """\
Recency,Frequency,Monetary,Time,Donated
2,50,12500,98,1
0,13,3250,28,1
1,16,4000,35,1
2,20,5000,45,1
1,24,6000,77,0
4,4,1000,4,0
2,7,1750,14,1
1,12,3000,35,0
"""


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("DPKMEANS_OUT_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture
def blood_csv(tmp_path):
    path = tmp_path / "blood.csv"
    path.write_text(BLOOD_SAMPLE)
    return str(path)


class TestPlan:
    def test_prints_schedule_and_json(self, capsys):
        rc = main(["plan", "--n", "748", "--d", "4", "--k", "2", "--eps", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "iterations T         2" in out
        blob = json.loads(out[out.index("{") :])
        assert blob["iterations"] == 2
        assert blob["epsilon_per_iter"] == pytest.approx(0.5)

    def test_override_changes_schedule(self, capsys):
        rc = main(
            [
                "plan",
                "--n",
                "748",
                "--d",
                "4",
                "--k",
                "2",
                "--eps",
                "3.0",
                "--eps-m-override",
                "0.65508",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        blob = json.loads(out[out.index("{") :])
        assert blob["iterations"] == 4
        assert blob["epsilon_m"] == pytest.approx(0.65508)

    def test_shape_from_synthetic_dataset(self, capsys):
        rc = main(
            ["plan", "--synthetic", "1000,5,3", "--k", "3", "--eps", "2.0"]
        )
        assert rc == 0
        assert "N=1000 d=5" in capsys.readouterr().out

    def test_missing_shape_is_usage_error(self, capsys):
        rc = main(["plan", "--k", "2", "--eps", "1.0"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, capsys):
        rc = main(["plan", "--n", "10", "--d", "2", "--eps", "1.0"])
        assert rc == 1

    @pytest.mark.parametrize(
        "shape",
        [
            ["--n", "50", "--d", "2", "--dataset", "/nonexistent.csv", "--preset", "blood"],
            ["--n", "50", "--synthetic", "300,3,2"],
            ["--d", "2", "--synthetic", "300,3,2"],
            ["--n", "50"],
            ["--d", "2"],
        ],
        ids=["n-d-and-dataset", "n-and-synthetic", "d-and-synthetic", "n-alone", "d-alone"],
    )
    def test_ignored_shape_flag_is_usage_error(self, capsys, shape):
        assert main(["plan", "--k", "2", "--eps", "1", *shape]) == 1
        captured = capsys.readouterr()
        assert "error" in captured.err and not captured.out


class TestRun:
    def test_nonprivate_default_synthetic(self, out_dir, capsys):
        rc = main(["run", "--variant", "nonprivate", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "NONPRIVATE" in out
        report = json.loads((out_dir / "run_report.json").read_text())
        assert report["variant"] == "NONPRIVATE"
        assert report["master_seed"] == 7
        assert "timings_ms" not in report

    def test_work_is_printed_and_in_no_file(self, out_dir, capsys):
        assert main(["run", "--synthetic", "9000,3,4", "--k", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        (line,) = [line for line in out if line.startswith("work ")]
        report = json.loads((out_dir / "run_report.json").read_text())
        assert "work" not in report
        match = re.fullmatch(
            r"work \(not in report\): (\d+) passes, 0 from the store, (\d+) rows read,"
            r" (\d+) rows labelled, (\d+) blocks summed",
            line,
        )
        passes, read, labelled, summed = map(int, match.groups())
        # EDPDCS: T - 1 step passes and the final pass, each reading every row.
        assert passes == report["iterations_run"] and read == 9000 * passes
        assert 9000 <= labelled < read and 0 < summed <= 3 * (passes - 1)

    def test_rerun_is_byte_identical(self, out_dir):
        args = ["run", "--variant", "edpdcs", "--seed", "3", "--eps", "1.0"]
        assert main(args) == 0
        first = (out_dir / "run_report.json").read_bytes()
        assert main(args) == 0
        second = (out_dir / "run_report.json").read_bytes()
        assert first == second

    def test_partition_count_leaves_report_equal_except_config(self, out_dir):
        base = ["run", "--variant", "edpdcs", "--seed", "3", "--eps", "1.0"]
        assert main(base + ["--partitions", "1", "--out", str(out_dir / "a.json")]) == 0
        assert main(base + ["--partitions", "4", "--out", str(out_dir / "b.json")]) == 0
        a = json.loads((out_dir / "a.json").read_text())
        b = json.loads((out_dir / "b.json").read_text())
        for blob in (a, b):
            blob.pop("n_partitions")
            blob["config"].pop("threads")
        assert a == b

    def test_csv_dataset_with_preset(self, out_dir, blood_csv, capsys):
        rc = main(
            [
                "run",
                "--variant",
                "rf_dpkm",
                "--dataset",
                blood_csv,
                "--preset",
                "blood",
                "--eps",
                "2.0",
            ]
        )
        assert rc == 0
        report = json.loads((out_dir / "run_report.json").read_text())
        assert report["n_rows"] == 8
        assert report["n_dims"] == 4
        assert report["k"] == 2  # preset default
        assert report["budget_spent"] == pytest.approx(2.0)

    def test_variant_aliases(self, out_dir):
        assert main(["run", "--variant", "ru", "--eps", "1.0"]) == 0
        report = json.loads((out_dir / "run_report.json").read_text())
        assert report["variant"] == "RU_DPKM"

    def test_missing_file_is_data_error(self, out_dir, capsys):
        rc = main(
            [
                "run",
                "--variant",
                "nonprivate",
                "--dataset",
                "/no/such/file.csv",
                "--preset",
                "blood",
            ]
        )
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    def test_dataset_without_layout_is_usage_error(self, out_dir, capsys):
        rc = main(
            ["run", "--variant", "nonprivate", "--dataset", "/no/such/file.csv"]
        )
        assert rc == 1
        assert "--preset" in capsys.readouterr().err

    def test_malformed_csv_is_data_error(self, out_dir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3,4,l\n1,zap,3,4,l\n")
        rc = main(
            ["run", "--variant", "nonprivate", "--dataset", str(bad), "--preset", "blood"]
        )
        assert rc == 2
        assert "zap" in capsys.readouterr().err

    def test_range_wider_than_float64_is_usage_error(self, out_dir, tmp_path, capsys):
        # Every value is finite, but the column's span is not: this warned
        # three times and then failed on "NaN or infinite values".
        wide = tmp_path / "wide.csv"
        wide.write_text("1,-1e308\n2,1e308\n3,0\n")
        argv = ["run", "--variant", "nonprivate", "--dataset", str(wide),
                "--features", "0,1", "--k", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        assert rc == 1
        assert "column 'f1' has range [-1e+308, 1e+308]" in capsys.readouterr().err

    def test_bad_k_is_usage_error(self, out_dir, capsys):
        rc = main(
            ["run", "--variant", "edpdcs", "--synthetic", "50,2,2", "--k", "99"]
        )
        assert rc == 1

    def test_unknown_variant_is_usage_error(self, out_dir, capsys):
        rc = main(["run", "--variant", "wat"])
        assert rc == 1

    def test_nonpositive_eps_is_usage_error(self, out_dir, capsys):
        rc = main(["run", "--variant", "edpdcs", "--eps", "-1"])
        assert rc == 1

    def test_fractional_feature_index_is_usage_error(self, out_dir, blood_csv, capsys):
        rc = main(
            [
                "run",
                "--variant",
                "nonprivate",
                "--dataset",
                blood_csv,
                "--features",
                "0.7",
                "--k",
                "2",
            ]
        )
        assert rc == 1
        assert "--features" in capsys.readouterr().err
        assert not (out_dir / "run_report.json").exists()

    def test_repeated_feature_index_is_usage_error(self, out_dir, blood_csv, capsys):
        # A usage error (1), not a data error (2): the file is never read.
        argv = ["run", "--variant", "nonprivate", "--dataset", blood_csv, "--has-header"]
        rc = main([*argv, "--features", "0,0", "--k", "2"])
        assert rc == 1
        assert "error: column index 0 is given more than once" in capsys.readouterr().err
        assert not (out_dir / "run_report.json").exists()


    @pytest.mark.parametrize(
        "variant,flags",
        [
            ("ru", ["--rho", "5", "--t-cap", "3"]),
            ("ru", ["--mse-threshold", "0.1"]),
            ("nonprivate", ["--eps-m-override", "0.2"]),
            ("rf", ["--t1", "0.3", "--t2", "0.1"]),
            ("ru", ["--subsample", "100"]),
            ("nonprivate", ["--eps", "5"]),
        ],
    )
    def test_flag_the_variant_ignores_is_usage_error(self, out_dir, capsys, variant, flags):
        rc = main(["run", "--variant", variant, "--synthetic", "300,2,2", *flags])
        assert rc == 1
        assert f"{flags[0]} has no effect on variant {variant}" in capsys.readouterr().err
        assert not any(out_dir.iterdir())

    @pytest.mark.parametrize(
        "variant,flags",
        [
            ("edpdcs", ["--rho", "5", "--t1", "0.3", "--t2", "0.1"]),
            ("rf", ["--t-cap", "3"]),
            ("nonprivate", ["--subsample", "100"]),
        ],
    )
    def test_flag_the_variant_reads_is_accepted(self, out_dir, variant, flags):
        assert main(["run", "--variant", variant, "--synthetic", "300,2,2", *flags]) == 0

    @pytest.mark.parametrize("variant", ["edpdcs", "rf", "ru"])
    def test_private_variant_defaults_to_eps_one(self, out_dir, variant):
        args = ["run", "--variant", variant, "--synthetic", "300,2,2"]
        assert main(args) == 0
        default = (out_dir / "run_report.json").read_bytes()
        assert main([*args, "--eps", "1"]) == 0
        assert (out_dir / "run_report.json").read_bytes() == default
        assert json.loads(default)["epsilon"] == 1.0


class TestCompare:
    def test_writes_grid_and_json(self, out_dir, capsys):
        rc = main(
            [
                "compare",
                "--synthetic",
                "300,3,3",
                "--k",
                "3",
                "--eps",
                "0.5,1",
                "--seeds",
                "2",
            ]
        )
        assert rc == 0
        with open(out_dir / "comparison.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        variants = {r["variant"] for r in rows}
        assert variants == {"EDPDCS", "RF_DPKM", "RU_DPKM", "NONPRIVATE"}
        assert len(rows) == 3 * 2 + 1
        blob = json.loads((out_dir / "comparison.json").read_text())
        assert len(blob["runs"]) == 3 * 2 * 2 + 1
        for run in blob["runs"]:
            assert not {"timings_ms", "work"} & set(run)
        table = capsys.readouterr().out
        assert "EDPDCS" in table and "NONPRIVATE" in table

    def test_failing_run_stops_the_grid(self, out_dir, capsys):
        # 800 partitions for 748 rows: every run refuses, so the grid exits
        # as one run does and writes nothing.
        argv = ["--synthetic", "748,4,2", "--k", "2", "--partitions", "800", "--eps", "1"]
        assert main(["run", *argv]) == 1
        assert main(["compare", *argv, "--seeds", "2"]) == 1
        assert "n_partitions=800 exceeds 748 rows" in capsys.readouterr().err
        assert not any(out_dir.iterdir())

    def test_bad_epsilon_list_is_usage_error(self, out_dir, capsys):
        rc = main(
            ["compare", "--synthetic", "100,2,2", "--k", "2", "--eps", "a,b"]
        )
        assert rc == 1


#: Flags each variant's ``run`` accepts beyond the dataset and seed, and that
#: ``compare`` passes to every variant.
_PLANNER_FLAGS = ["--rho", "0.4", "--mse-threshold", "0.02", "--t-cap", "3"]
_CANOPY_FLAGS = ["--t1", "0.5", "--t2", "0.2", "--subsample", "200"]
_RUN_FLAGS = {
    "EDPDCS": _PLANNER_FLAGS + _CANOPY_FLAGS,
    "RF_DPKM": _PLANNER_FLAGS,
    "RU_DPKM": [],
    "NONPRIVATE": _CANOPY_FLAGS,
}


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize(
    "usable, code, message",
    [(2, 1, "need at least k=3 rows, got 2"), (0, 2, "no usable data rows")],
)
def test_missing_rows_leaving_too_few_exit_and_write_nothing(
    out_dir, capsys, command, usable, code, message
):
    # Three rows carry "?" in a feature column and are dropped; the label
    # column's "?" is ignored.
    rows = ["1,2,3,4,?", "5,6,7,8,1"][:usable] + ["?,2,3,4,0", "1,?,3,4,1", "1,2,3,?,0"]
    path = out_dir / "missing.csv"
    path.write_text(BLOOD_SAMPLE.splitlines()[0] + "\n" + "\n".join(rows) + "\n")
    argv = [command, "--dataset", str(path), "--preset", "blood", "--k", "3"]
    assert main(argv) == code
    assert message in capsys.readouterr().err
    assert [p.name for p in out_dir.iterdir()] == ["missing.csv"]


def test_compare_builds_each_run_as_run_does(out_dir):
    """Every run of a grid matches ``run`` at its variant, epsilon and seed."""
    data = ["--synthetic", "300,3,3", "--k", "3"]
    argv = ["compare", *data, *_PLANNER_FLAGS, *_CANOPY_FLAGS, "--eps", "0.5,2"]
    assert main([*argv, "--seeds", "2", "--seed", "4"]) == 0
    grid = json.loads((out_dir / "comparison.json").read_text())["runs"]
    assert len(grid) == 3 * 2 * 2 + 1
    for blob in grid:
        variant, eps, seed = blob["variant"], blob["epsilon"], blob["master_seed"]
        flags = [*data, "--variant", variant.lower(), "--seed", str(seed)]
        if eps is not None:
            flags += ["--eps", repr(eps)]
        out = out_dir / f"{variant}-{eps}-{seed}.json"
        assert main(["run", *flags, *_RUN_FLAGS[variant], "--out", str(out)]) == 0
        alone = json.loads(out.read_text())
        assert (
            RunReport(**blob, timings_ms={}).comparable_json()
            == RunReport(**alone, timings_ms={}).comparable_json()
        ), (variant, eps, seed)


class TestInputFlagTable:
    """``cli._INPUT_FLAGS`` names every input field once, and each command
    declares the flags it builds its inputs from."""

    #: A value for each field, distinct from its default.
    VALUES = {
        "rho": 0.3,
        "mse_threshold": 0.05,
        "t_cap": 4,
        "epsilon_m_override": 0.2,
        "t1": 0.5,
        "t2": 0.25,
        "subsample_size": 200,
    }
    SHAPE_AND_BUDGET = {"n_rows", "n_dims", "k", "epsilon_total"}

    @staticmethod
    def _names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    def test_table_sets_every_input_field_once(self):
        table = cli._INPUT_FLAGS
        set_fields = [f for flags in table.values() for f in flags.values() if f]
        assert len(set_fields) == len(set(set_fields))
        assert set(table["takes_planner_inputs"].values()) == (
            self._names(PlannerInputs) - self.SHAPE_AND_BUDGET
        )
        assert set(table["has_canopy_start"].values()) == self._names(CanopyParams)
        assert set(table["spends_epsilon"]) == {"eps"}
        for reads in table:
            assert isinstance(getattr(Variant, reads), property), reads

    @staticmethod
    def _flags(*reads):
        return [flag for r in reads for flag in cli._INPUT_FLAGS[r]]

    @pytest.mark.parametrize(
        "command, required",
        [
            ("run", []),
            ("compare", []),
            ("plan", ["--k", "2", "--eps", "1"]),
        ],
    )
    def test_each_command_declares_the_flags_it_reads(self, command, required):
        reads = ["takes_planner_inputs"]
        if command != "plan":
            reads += ["has_canopy_start", "spends_epsilon"]
        for flag in self._flags(*reads):
            text = "--" + flag.replace("_", "-")
            args = cli.build_parser().parse_args([command, *required, text, "1"])
            assert float(getattr(args, flag)) == 1.0, (command, flag)

    def test_plan_declares_no_canopy_flag(self, capsys):
        for flag in self._flags("has_canopy_start"):
            text = "--" + flag.replace("_", "-")
            rc = main(["plan", "--n", "50", "--d", "2", "--k", "2", "--eps", "1", text, "1"])
            assert rc == 1
            assert f"unrecognized arguments: {text} 1" in capsys.readouterr().err

    def test_run_passes_each_flag_to_its_field(self, out_dir):
        flags = []
        for reads in ("takes_planner_inputs", "has_canopy_start"):
            for flag, field in cli._INPUT_FLAGS[reads].items():
                flags += ["--" + flag.replace("_", "-"), str(self.VALUES[field])]
        assert main(["run", "--synthetic", "400,2,2", "--eps", "50", *flags]) == 0
        config = json.loads((out_dir / "run_report.json").read_text())["config"]
        given = {**config["planner_inputs"], **config["canopy"]}
        for field, value in self.VALUES.items():
            assert given[field] == value, field


class TestInvalidNumbers:
    """Non-finite budgets and radii, repeated budgets and non-integer sizes are usage errors."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--n", "748", "--d", "4", "--k", "2", "--eps", "nan"],
            ["run", "--synthetic", "100,2,2", "--eps", "nan"],
            ["run", "--synthetic", "100,2,2", "--eps", "inf"],
            ["run", "--synthetic", "100,2,2", "--rho", "nan"],
            ["run", "--synthetic", "100,2,2", "--variant", "ru", "--eps", "nan"],
            ["compare", "--synthetic", "100,2,2", "--k", "2", "--eps", "nan", "--seeds", "1"],
            ["compare", "--synthetic", "100,2,2", "--k", "2", "--eps", "0.5,nan", "--seeds", "2"],
            ["compare", "--synthetic", "50,2,2", "--k", "2", "--seeds", "2", "--eps", "1,1"],
            ["run", "--synthetic", "300,2,2", "--t1", "nan", "--t2", "nan"],
            ["run", "--synthetic", "300.9,2.5,2"],
            ["run", "--synthetic", "50,2,2,-1"],
            ["plan", "--synthetic", "50,2,2,-3", "--k", "2", "--eps", "1"],
        ],
        ids=[
            "plan-eps-nan",
            "run-eps-nan",
            "run-eps-inf",
            "run-rho-nan",
            "run-ru-eps-nan",
            "compare-eps-nan",
            "compare-last-eps-nan",
            "compare-eps-repeated",
            "run-radii-nan",
            "run-fractional-synthetic",
            "run-negative-synthetic-seed",
            "plan-negative-synthetic-seed",
        ],
    )
    def test_exits_with_usage_error(self, out_dir, capsys, argv):
        assert main(argv) == 1
        assert "error" in capsys.readouterr().err
        assert not any(out_dir.iterdir())


class TestLayoutFlags:
    """The CSV layout flags ``--preset``, ``--features`` and ``--has-header`` need ``--dataset``."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--variant", "nonprivate", "--preset", "blood", "--has-header"], "--preset"),
            (["run", "--has-header"], "--has-header"),
            (["plan", "--synthetic", "300,3,2", "--preset", "adult", "--k", "2", "--eps", "1"],
             "--preset"),
            (["plan", "--n", "50", "--d", "2", "--k", "2", "--eps", "1", "--features", "0,1"],
             "--features"),
            (["compare", "--features", "0,1", "--k", "2", "--eps", "1", "--seeds", "1"],
             "--features"),
        ],
        ids=[
            "run-preset-header",
            "run-header",
            "plan-synthetic-preset",
            "plan-n-d-features",
            "compare-features",
        ],
    )
    def test_without_dataset_is_usage_error(self, out_dir, capsys, argv, flag):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"error: {flag} needs --dataset" in captured.err and not captured.out
        assert not any(out_dir.iterdir())

    def test_accepted_with_dataset(self, out_dir, blood_csv):
        argv = ["--dataset", blood_csv, "--features", "0,1", "--has-header", "--k", "2"]
        assert main(["run", "--variant", "nonprivate", *argv]) == 0
        assert main(["plan", *argv, "--eps", "1"]) == 0


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_bench_is_unknown_command(self, capsys):
        assert main(["bench"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "plan" in capsys.readouterr().out


@pytest.mark.parametrize("eps", ["2e-308", "1e-307"])
@pytest.mark.parametrize("variant", ["edpdcs", "rf", "ru"])
def test_epsilon_whose_noise_overflows_exits_1_and_writes_nothing(
    out_dir, capsys, variant, eps
):
    # At 2e-308 every variant's noise scale is infinite.  At 1e-307 EDPDCS's
    # start has a finite scale, but its draws could overflow: it wrote NaN.
    argv = ["--eps", eps, "--synthetic", "200,4,2", "--k", "2"]
    assert main(["run", "--variant", variant, *argv]) == 1
    assert "noise overflows" in capsys.readouterr().err
    assert not any(out_dir.iterdir())


def test_compare_at_an_overflowing_epsilon_exits_1_and_writes_nothing(out_dir, capsys):
    argv = ["--eps", "2e-308", "--synthetic", "200,4,2", "--k", "2", "--seeds", "2"]
    assert main(["compare", *argv]) == 1
    assert "noise overflows" in capsys.readouterr().err
    assert not any(out_dir.iterdir())


def test_csv_that_is_not_utf8_exits_2_and_writes_nothing(out_dir, capsys):
    path = out_dir / "blood.csv"
    lines = BLOOD_SAMPLE.encode().splitlines()[:4]
    lines[2] = lines[2][:-1] + b"\xff"  # the ignored label column
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert main(["run", "--dataset", str(path), "--preset", "blood"]) == 2
    assert "blood.csv:3: not UTF-8" in capsys.readouterr().err
    assert [p.name for p in out_dir.iterdir()] == ["blood.csv"]
