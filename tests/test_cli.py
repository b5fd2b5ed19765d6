import ast
import json
import time

import pytest

import qcut.cli
from qcut import experiments
from qcut.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def reject_constant(token):
    raise ValueError(f"non-finite number {token} in report")


def parse_kv(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


class TestEstimate:
    def test_json_report_shape_and_target(self, capsys):
        code, out = run_cli(
            capsys,
            "estimate", "--n", "3", "--m", "2", "--mode", "pure",
            "--samples", "5000", "--seed", "42",
        )
        record = json.loads(out)
        assert code == 0
        assert list(record) == ["config", "estimate", "analytic_target", "z_score", "wall_time_seconds"]
        assert record["analytic_target"] == 0.75
        assert record["config"]["n"] == 3
        assert record["estimate"]["samples"] == 5000
        # Serialization round-trips unchanged.
        assert json.loads(json.dumps(record)) == record

    def test_trivial_cut_reports_exact_one(self, capsys):
        code, out = run_cli(
            capsys,
            "estimate", "--n", "2", "--m", "2", "--mode", "pure",
            "--samples", "10", "--seed", "1",
        )
        record = json.loads(out)
        assert code == 0
        assert record["estimate"]["mean"] == 1.0
        assert record["estimate"]["stderr"] == 0.0

    def test_output_is_reproducible_for_fixed_flags(self, capsys):
        argv = (
            "estimate", "--n", "2", "--m", "1", "--mode", "state-estimation",
            "--samples", "3000", "--seed", "7",
        )
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        a, b = json.loads(first), json.loads(second)
        a.pop("wall_time_seconds")
        b.pop("wall_time_seconds")
        assert a == b

    def test_mixed_mode_with_bures_verification(self, capsys):
        code, out = run_cli(
            capsys,
            "estimate", "--n", "3", "--m", "2", "--r", "2", "--mode", "mixed",
            "--samples", "1000", "--seed", "7", "--verify-bures",
        )
        record = json.loads(out)
        assert code == 0
        assert record["analytic_target"] == pytest.approx(5 / 7, abs=1e-12)
        assert record["estimate"]["bures_max_deviation"] < 1e-8

    def test_csv_format(self, capsys):
        code, out = run_cli(
            capsys,
            "estimate", "--n", "2", "--m", "1", "--mode", "pure",
            "--samples", "2000", "--seed", "3", "--format", "csv",
        )
        header, row = out.strip().splitlines()
        assert code == 0
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["n"] == "2"
        assert float(fields["analytic_target"]) == pytest.approx(2 / 3)

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run_cli(
            capsys,
            "estimate", "--n", "2", "--m", "2", "--mode", "pure",
            "--samples", "10", "--seed", "1", "--output", str(path),
        )
        assert code == 0
        assert json.loads(path.read_text()) == json.loads(out)

    def test_seed_defaults_to_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("QCUT_SEED", "99")
        _, out = run_cli(
            capsys,
            "estimate", "--n", "2", "--m", "1", "--mode", "pure",
            "--samples", "500",
        )
        assert json.loads(out)["config"]["seed"] == 99

    def test_undefined_z_score_is_null_in_valid_json(self, capsys):
        # One sample: zero stderr with the mean off the target.
        code, out = run_cli(
            capsys,
            "estimate", "--n", "3", "--m", "2", "--mode", "pure",
            "--samples", "1", "--seed", "4",
        )
        record = json.loads(out, parse_constant=reject_constant)
        assert code == 1
        assert record["estimate"]["stderr"] == 0.0
        assert record["z_score"] is None

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--n", "3", "--m", "2", "--mode", "bogus", "--samples", "10"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["bogus-command"])
        assert err.value.code == 2


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--n", "2", "--m", "3", "--mode", "pure", "--samples", "10"],
            ["estimate", "--n", "3", "--m", "2", "--mode", "pure", "--samples", "10", "--shards", "0"],
            ["estimate", "--n", "3", "--m", "2", "--mode", "pure", "--samples", "0"],
            ["estimate", "--n", "3", "--m", "2", "--r", "0", "--mode", "entangled", "--samples", "10"],
            ["estimate", "--n", "3", "--m", "2", "--r", "3", "--mode", "pure", "--samples", "10"],
            ["estimate", "--n", "3", "--m", "2", "--r", "2", "--mode", "state-estimation", "--samples", "10"],
            ["estimate", "--n", "3", "--m", "2", "--mode", "pure", "--samples", "10", "--seed", "-1"],
            ["estimate", "--n", "3", "--m", "2", "--mode", "pure", "--samples", "10", "--seed", str(2**64)],
            ["estimate", "--n", "3", "--m", "2", "--mode", "pure", "--samples", "10", "--threads", "0"],
            ["teleport-demo", "--n", "2", "--m", "3", "--seed", "1"],
            ["teleport-demo", "--n", "3", "--m", "2", "--seed", "-1"],
            ["verify", "--max-n", "0"],
            ["verify", "--max-r", "0"],
            ["table", "--n-max", "3", "--r", "0"],
            ["table", "--n-max", "0"],
            ["estimate", "--n", "3", "--m", "2", "--r", "2", "--mode", "entangled", "--samples", "10",
             "--verify-bures"],
            ["estimate", "--n", "3", "--m", "2", "--mode", "state-estimation", "--samples", "10",
             "--verify-bures"],
        ],
        ids=[
            "m-above-n", "no-shards", "no-samples", "r-zero", "r-in-pure", "r-in-state-estimation",
            "negative-seed", "seed-2**64", "no-threads", "teleport-m-above-n",
            "teleport-negative-seed", "verify-max-n-0", "verify-max-r-0", "table-r-zero",
            "table-n-max-0", "bures-in-entangled", "bures-in-state-estimation",
        ],
    )
    def test_invalid_input_is_a_one_line_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines()[-1].startswith("qcut: error: ")

    def test_invalid_seed_environment_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QCUT_SEED", "seven")
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--n", "3", "--m", "2", "--mode", "pure", "--samples", "10"])
        assert err.value.code == 2

    def test_errors_after_validation_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("estimator failure")

        monkeypatch.setattr(experiments, "run_experiment", broken)
        with pytest.raises(ValueError, match="estimator failure"):
            main(["estimate", "--n", "3", "--m", "2", "--mode", "pure", "--samples", "10"])


class TestVerify:
    def test_default_sweep_passes(self, capsys):
        code, out = run_cli(capsys, "verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "verify: PASS"
        names = {line.split()[0] for line in lines[:-1]}
        assert names == {
            "relation", "composition", "pure_moments",
            "entangled_moments", "horodecki", "completeness",
        }
        assert all("PASS" in line for line in lines)

    def test_small_sweep_is_fast(self, capsys):
        start = time.perf_counter()
        code, _ = run_cli(capsys, "verify", "--max-n", "4")
        assert code == 0
        assert time.perf_counter() - start < 1.0

    def test_perturbed_normalization_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(qcut.cli, "_max_completeness_deviation", lambda *args, **kwargs: 0.5)
        code, out = run_cli(capsys, "verify", "--max-n", "4")
        assert code == 1
        completeness = [line for line in out.splitlines() if line.startswith("completeness")]
        assert len(completeness) == 1 and "FAIL at" in completeness[0]
        assert out.strip().splitlines()[-1] == "verify: FAIL"


class TestTable:
    def test_pure_fidelity_rows(self, capsys):
        code, out = run_cli(capsys, "table", "--n-max", "3")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "n,m,r,fidelity"
        table = {tuple(r.split(",")[:3]): r.split(",")[3] for r in rows[1:]}
        assert table[("3", "2", "1")] == "0.750000000000"
        assert table[("3", "3", "1")] == "1.000000000000"
        assert table[("2", "1", "1")] == "0.666666666667"

    def test_entangled_fidelity_rows(self, capsys):
        _, out = run_cli(capsys, "table", "--n-max", "3", "--r", "2")
        assert "3,2,2,0.714285714286" in out
        assert "2,1,2,0.600000000000" in out

    def test_state_estimation_rows(self, capsys):
        _, out = run_cli(capsys, "table", "--n-max", "4", "--what", "state-estimation")
        assert "2,1,1,0.666666666667" in out
        assert "4,2,1,0.300000000000" in out


class TestTeleportDemo:
    def test_trivial_dimensions_are_lossless(self, capsys):
        code, out = run_cli(capsys, "teleport-demo", "--n", "2", "--m", "2", "--seed", "3")
        values = parse_kv(out)
        assert code == 0
        assert float(values["end_to_end_fidelity"]) == 1.0

    def test_fidelity_matches_scaled_outcome_probability(self, capsys):
        _, out = run_cli(capsys, "teleport-demo", "--n", "3", "--m", "2", "--seed", "5")
        values = parse_kv(out)
        probability = float(values["outcome_probability"])
        assert float(values["cut_fidelity"]) == pytest.approx(2 * probability, abs=1e-12)
        assert float(values["end_to_end_fidelity"]) == pytest.approx(2 * probability, abs=1e-12)

    def test_single_level_teleport_step_is_perfect(self, capsys):
        _, out = run_cli(capsys, "teleport-demo", "--n", "4", "--m", "1", "--seed", "9")
        values = parse_kv(out)
        assert float(values["teleport_fidelity"]) == 1.0
        assert len(ast.literal_eval(values["subset"])) == 1
