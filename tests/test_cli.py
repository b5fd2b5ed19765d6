import ast
import contextlib
import itertools
import json
import math
from fractions import Fraction
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import table_lines, verify_rows

import qcut.cli
from qcut import channel, experiments, povm
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "2", "--m", "1", "--mode", "pure", "--samples", "200"],
            ["--n", "4", "--m", "2", "--r", "3", "--mode", "entangled", "--samples", "200"],
            ["--n", "3", "--m", "2", "--r", "2", "--mode", "mixed", "--samples", "100"],
            ["--n", "5", "--m", "2", "--mode", "state-estimation", "--samples", "200"],
        ],
        ids=["pure", "entangled", "mixed", "state-estimation"],
    )
    def test_csv_row_is_the_json_record_flattened(self, capsys, argv):
        _, out = run_cli(capsys, "estimate", *argv, "--seed", "5")
        record = json.loads(out)
        _, out = run_cli(capsys, "estimate", *argv, "--seed", "5", "--format", "csv")
        header, row = out.splitlines()
        flat = {
            **record["config"],
            **record["estimate"],
            "analytic_target": record["analytic_target"],
            "z_score": record["z_score"],
        }
        assert header.split(",") == [*flat, "wall_time_seconds"]
        assert row.split(",")[:-1] == [str(value) for value in flat.values()]
        assert ("bures_max_deviation" in flat) == ("mixed" in argv)

    def test_estimate_charges_the_run_once(self, capsys, monkeypatch):
        calls = []
        check_run = experiments.check_run
        monkeypatch.setattr(
            experiments, "check_run", lambda *args: calls.append(args) or check_run(*args)
        )
        code, _ = run_cli(
            capsys,
            "estimate", "--n", "5", "--m", "2", "--mode", "state-estimation",
            "--samples", "500", "--seed", "3", "--threads", "2",
        )
        assert code == 0
        assert len(calls) == 1

    def test_mode_choices_are_the_estimator_modes(self):
        parser = qcut.cli.build_parser()
        (commands,) = [action for action in parser._actions if action.dest == "command"]
        (mode,) = [action for action in commands.choices["estimate"]._actions if action.dest == "mode"]
        assert [choice.replace("-", "_") for choice in mode.choices] == list(experiments._MODES)

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
            ["estimate", "--n", "3", "--m", "2", "--mode", "pure", "--samples", "10", "--threads", "-1"],
            ["teleport-demo", "--n", "2", "--m", "3", "--seed", "1"],
            ["teleport-demo", "--n", "3", "--m", "2", "--seed", "-1"],
            ["verify", "--max-n", "0"],
            ["verify", "--max-r", "0"],
            ["verify", "--max-n", "23"],
            ["table", "--n-max", "3", "--r", "0"],
            ["table", "--n-max", "0"],
            ["table", "--n-max", "3", "--r", "2", "--what", "state-estimation"],
            ["estimate", "--n", "3", "--m", "2", "--r", "2", "--mode", "entangled", "--samples", "10",
             "--verify-bures"],
            ["estimate", "--n", "3", "--m", "2", "--mode", "state-estimation", "--samples", "10",
             "--verify-bures"],
            ["estimate", "--n", "1000000", "--m", "1", "--r", "10000", "--mode", "entangled",
             "--samples", "100"],
            ["teleport-demo", "--n", "100000000", "--m", "1", "--seed", "1"],
            ["verify", "--max-r", "100000000"],
            ["estimate", "--n", "2", "--m", "1", "--mode", "pure", "--samples", "1000000000000",
             "--shards", "1000000000"],
        ],
        ids=[
            "m-above-n", "no-shards", "no-samples", "r-zero", "r-in-pure", "r-in-state-estimation",
            "negative-seed", "seed-2**64", "no-threads", "negative-threads", "teleport-m-above-n",
            "teleport-negative-seed", "verify-max-n-0", "verify-max-r-0",
            "verify-max-n-over-enumeration-cap", "table-r-zero",
            "table-n-max-0", "table-r-in-state-estimation", "bures-in-entangled",
            "bures-in-state-estimation", "estimate-over-memory-cap", "teleport-over-memory-cap",
            "verify-over-case-cap", "estimate-shards-over-memory-cap",
        ],
    )
    def test_invalid_input_is_a_one_line_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines()[-1].startswith("qcut: error: ")

    @pytest.mark.parametrize(
        "argv",
        [["estimate", "--n", "3", "--m", "2", "--mode", "pure", "--samples", "10"], ["table", "--n-max", "3"]],
        ids=["estimate", "table"],
    )
    def test_unwritable_output_is_a_usage_error_before_any_sample(self, capsys, monkeypatch, tmp_path, argv):
        # It used to end in a traceback with exit 1, the off-target code:
        # after the whole estimate, or before the table's first row.
        def unreachable(*args, **kwargs):
            raise AssertionError("sampled before the output was opened")

        monkeypatch.setattr(experiments, "stream", unreachable)
        path = tmp_path / "missing" / "report"
        with pytest.raises(SystemExit) as err:
            main([*argv, "--output", str(path)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.strip().splitlines()[-1]
        assert last == f"qcut: error: cannot write --output {path}: No such file or directory"

    def test_output_is_replaced_only_by_a_report(self, capsys, tmp_path):
        # The file is opened before the run: a refused run leaves it as it
        # was, and a report replaces all of a longer file.
        path = tmp_path / "report.json"
        path.write_text("x" * 10_000)
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--n", "1000000", "--m", "1", "--r", "10000", "--mode", "entangled",
                  "--samples", "100", "--output", str(path)])
        assert err.value.code == 2
        assert path.read_text() == "x" * 10_000
        capsys.readouterr()
        code, out = run_cli(capsys, "estimate", "--n", "3", "--m", "2", "--mode", "pure", "--samples", "10",
                            "--output", str(path))
        assert code == 0 and path.read_text() == out

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


class TestParserReuse:
    RUNS = [
        # (argv, QCUT_SEED)
        (["estimate", "--n", "3", "--m", "2", "--mode", "bogus", "--samples", "10"], "0"),
        (["verify", "--max-n", "4", "--max-r", "2"], "0"),
        (["teleport-demo", "--n", "5", "--m", "3"], "5"),
        (["teleport-demo", "--n", "5", "--m", "3"], "6"),
        (["estimate", "--n", "3", "--m", "2", "--mode", "pure", "--samples", "500"], "7"),
    ]

    @staticmethod
    def comparable(code, out, err):
        if out.startswith("{"):
            record = json.loads(out)
            record.pop("wall_time_seconds")
            out = record
        return code, out, err

    def test_calls_in_one_process_match_separate_processes(self, capsys, monkeypatch):
        # main reuses one parser per process, so every call after the first
        # (a usage error included) must print what a fresh process prints.
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(qcut.cli.__file__).resolve().parents[1])
        results = []
        for argv, seed in self.RUNS:
            monkeypatch.setenv("QCUT_SEED", seed)
            try:
                code = main(argv)
            except SystemExit as err:
                code = err.code
            captured = capsys.readouterr()
            results.append(self.comparable(code, captured.out, captured.err))
            env = dict(os.environ, PYTHONPATH=src)
            fresh = subprocess.run(
                [sys.executable, "-m", "qcut.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert results[-1] == self.comparable(fresh.returncode, fresh.stdout, fresh.stderr)
        assert results[0][0] == 2
        assert results[1][1].endswith("verify: PASS\n")
        # QCUT_SEED is read on every call, not when the parser is built.
        assert results[2][1].startswith("n=5 m=3 seed=5\n")
        assert results[3][1].startswith("n=5 m=3 seed=6\n")
        assert results[4][1]["config"]["seed"] == 7


VERIFY_PASS = """\
relation             max_residual=0.000e+00 tol=1.0e-14 PASS
composition          max_residual=0.000e+00 tol=1.0e-14 PASS
pure_moments         max_residual=0.000e+00 tol=1.0e-13 PASS
entangled_moments    max_residual=0.000e+00 tol=1.0e-13 PASS
horodecki            max_residual=0.000e+00 tol=0.0e+00 PASS
completeness         max_residual=0.000e+00 tol=1.0e-12 PASS
verify: PASS
"""


def shift_closed_form(monkeypatch, eps=Fraction(1, 10**9)):
    """Replace (MR+1)/(NR+1) by (MR+1)/(NR+1) + eps, kept as an integer pair:
    for ints, or element by element, exactly, for arrays of cases, whose
    pairs are then Python ints (object arrays)."""
    closed = experiments._fidelity_ratio

    def shifted(n, m, r):
        value = Fraction(*closed(n, m, r)) + eps
        return value.numerator, value.denominator

    monkeypatch.setattr(experiments, "_fidelity_ratio", np.frompyfunc(shifted, 3, 2))


def scale_moments(monkeypatch, factor=1 + Fraction(1, 10**9)):
    """Replace each Haar moment num/den by num/den * factor, kept as an
    integer pair: for one dim, or element by element, exactly, for an array
    of dims, whose pairs are then Python ints (object arrays)."""
    moment = experiments.exact_moment_fraction

    def scaled(num, den):
        value = Fraction(num, den) * factor
        return value.numerator, value.denominator

    monkeypatch.setattr(
        experiments,
        "exact_moment_fraction",
        lambda dim, exponents: np.frompyfunc(scaled, 2, 2)(*moment(dim, exponents)),
    )


def scale_coherence(monkeypatch, factor=1 + Fraction(1, 10**9)):
    """Replace q = (M-1)/(N-1) by q * factor in ``experiments._coherence``,
    whose value q + (1 - q) x then moves by (factor - 1) q (1 - x), kept as
    an integer pair, element by element for arrays of cases."""
    coherence = experiments._coherence

    def scaled(n, m, num, den):
        q = Fraction(m - 1, max(n - 1, 1))
        value = Fraction(*coherence(n, m, num, den)) + (factor - 1) * q * (1 - Fraction(num, den))
        return value.numerator, value.denominator

    monkeypatch.setattr(experiments, "_coherence", np.frompyfunc(scaled, 4, 2))


def failed_rows(out):
    return {line.split()[0] for line in out.splitlines()[:-1] if "FAIL at" in line}


def assert_failures_match_the_oracle(out, max_n=12, max_r=6):
    """Every FAIL row prints the residual and the first worst case of the
    case-by-case sweep (``oracles.verify_rows``)."""
    rows = verify_rows(max_n, max_r)
    for line in out.splitlines()[:-1]:
        if "FAIL at" in line:
            residual, case = rows[line.split()[0]]
            assert f"max_residual={residual:.3e} " in line
            assert line.endswith(f"FAIL at {case}")


class TestVerify:
    @pytest.mark.parametrize(
        "argv", [(), ("--max-n", "5", "--max-r", "2")], ids=["default", "max-n-5-max-r-2"]
    )
    def test_transcript(self, capsys, argv):
        code, out = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert out == VERIFY_PASS

    def test_shifted_closed_form_fails_every_route_against_it(self, capsys, monkeypatch):
        shift_closed_form(monkeypatch)
        code, out = run_cli(capsys, "verify")
        assert code == 1
        assert {"relation", "composition", "entangled_moments"} <= failed_rows(out)
        assert out.splitlines()[-1] == "verify: FAIL"
        assert_failures_match_the_oracle(out)

    def test_scaled_moment_fails_both_moment_rows(self, capsys, monkeypatch):
        scale_moments(monkeypatch)
        code, out = run_cli(capsys, "verify")
        assert code == 1
        assert failed_rows(out) == {"pure_moments", "entangled_moments"}
        assert_failures_match_the_oracle(out)

    def test_scaled_coherence_fails_exactly_the_rows_that_take_it(self, capsys, monkeypatch):
        # q has one definition: the relation route and both moment routes take
        # it, and the composition, horodecki and completeness rows do not.
        scale_coherence(monkeypatch)
        code, out = run_cli(capsys, "verify")
        assert code == 1
        assert failed_rows(out) == {"relation", "pure_moments", "entangled_moments"}
        passed = {line.split()[0] for line in out.splitlines()[:-1] if line.endswith(" PASS")}
        assert passed == {"composition", "horodecki", "completeness"}

    @pytest.mark.parametrize("perturb", [None, shift_closed_form], ids=["closed-form", "shifted"])
    def test_closed_form_rows_memory_does_not_grow_with_the_cases(self, monkeypatch, perturb):
        # The four closed-form rows hold one block of cases at a time, the
        # moment rows included: the moments on max_r distinct N * R are
        # evaluated per block and kept by no row.  At max_r = 2^15 the
        # relation and composition rows stay int64 (their largest product is
        # about 2.8e14) and the moment rows take Python ints; under the shift
        # every row takes Python ints and runs in smaller blocks to save time.
        max_r = 2**15
        if perturb:
            perturb(monkeypatch)
            monkeypatch.setattr(qcut.cli, "CASE_BLOCK", 2**10)
            max_r = 2**10

        completeness = qcut.cli._max_completeness_deviation(2)

        def peak(max_r):
            tracemalloc.start()
            try:
                rows = list(itertools.islice(qcut.cli._verify_checks(2, max_r, completeness), 4))
                return tracemalloc.get_traced_memory()[1], rows
            finally:
                tracemalloc.stop()

        peak(max_r // 4)  # first-call allocations are not the pass's
        (small, _), (large, rows) = peak(max_r // 4), peak(max_r)
        assert large <= 1.2 * small
        # The smaller sweep's 4 * max_r / 4 composition cases fill a block,
        # and the larger one runs four times as many.
        assert max_r >= qcut.cli.CASE_BLOCK
        assert [row[0] for row in rows] == ["relation", "composition", "pure_moments", "entangled_moments"]
        if perturb is None:
            assert all(row[2] == 0.0 for row in rows)

    @pytest.mark.parametrize("perturb", [shift_closed_form, scale_moments, scale_coherence])
    def test_no_state_survives_a_call(self, capsys, monkeypatch, perturb):
        # Pass, fail under the perturbation, pass again once it is undone:
        # a value kept from an earlier call would hide one of the two changes.
        assert run_cli(capsys, "verify") == (0, VERIFY_PASS)
        with monkeypatch.context() as patch:
            perturb(patch)
            code, out = run_cli(capsys, "verify")
            assert code == 1 and failed_rows(out)
        assert run_cli(capsys, "verify") == (0, VERIFY_PASS)

    def test_each_moment_row_makes_two_moment_calls_per_block(self, capsys, monkeypatch):
        # The default sweep's 78 pure_moments cases fit one block of 100 and
        # its 468 entangled_moments cases take five; each block's call asks
        # for the fourth and the cross moment once, on the array of its dims.
        calls = []
        moment = experiments.exact_moment_fraction
        monkeypatch.setattr(qcut.cli, "CASE_BLOCK", 100)
        monkeypatch.setattr(
            experiments,
            "exact_moment_fraction",
            lambda dim, exponents: calls.append((dim, exponents)) or moment(dim, exponents),
        )
        assert run_cli(capsys, "verify") == (0, VERIFY_PASS)
        assert [exponents for _, exponents in calls] == [(2,), (1, 1)] * 6
        assert all(isinstance(dim, np.ndarray) for dim, _ in calls)
        assert [len(dim) for dim, _ in calls] == [78] * 2 + [100] * 8 + [68] * 2

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
        # Every deviation becomes 1/2: worst = norm_const over norms = 2 norm_const.
        deviations = qcut.cli._max_completeness_deviation

        def halved(max_n):
            _, norms = deviations(max_n)
            return norms, 2 * norms

        monkeypatch.setattr(qcut.cli, "_max_completeness_deviation", halved)
        code, out = run_cli(capsys, "verify", "--max-n", "4")
        assert code == 1
        completeness = [line for line in out.splitlines() if line.startswith("completeness")]
        assert len(completeness) == 1 and "FAIL at" in completeness[0]
        assert out.strip().splitlines()[-1] == "verify: FAIL"

    @pytest.mark.parametrize("skipped", [0b1, 0b10000, 0b101001, 0b111111])
    def test_a_pass_that_skips_one_mask_fails_at_its_subset(self, capsys, monkeypatch, skipped):
        # Mask `skipped` is the subset of its set bits: it first counts at
        # N = its bit length, M = its size, and a lost subset there is the
        # sweep's first worst deviation, 1 / C(N-1, M-1).  The pass reads
        # the i-th mask of a chunk as its first plus i, so the skipped mask
        # is replaced by mask 0, which holds no index, in its place.
        chunks = povm._mask_chunks
        monkeypatch.setattr(
            povm, "_mask_chunks", lambda stop: (np.where(masks == skipped, 0, masks) for masks in chunks(stop))
        )
        code, out = run_cli(capsys, "verify", "--max-n", "6", "--max-r", "1")
        assert code == 1
        assert failed_rows(out) == {"completeness"}
        case = (skipped.bit_length(), skipped.bit_count())
        assert f"FAIL at {case}" in out.splitlines()[-2]


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

    @pytest.mark.parametrize(
        "r,what", [(1, "fidelity"), (2, "fidelity"), (5, "fidelity"), (1, "state-estimation")]
    )
    def test_every_row_is_the_exact_value_rounded(self, capsys, r, what):
        code, out = run_cli(capsys, "table", "--n-max", "12", "--r", str(r), "--what", what)
        assert code == 0
        assert out.splitlines() == table_lines(12, r, what)

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        _, out = run_cli(capsys, "table", "--n-max", "6", "--r", "2", "--output", str(path))
        assert path.read_text() == out
        assert out.count("\n") == 1 + 21

    def test_memory_does_not_grow_with_the_rows(self):
        # Rows are written as they are formatted: 20,100 rows peak where 1,275 do.
        def peak(n_max):
            tracemalloc.start()
            try:
                main(["table", "--n-max", str(n_max)])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            peak(50)  # first-call allocations are not the table's
            small, large = peak(50), peak(200)
        assert large <= 1.2 * small


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

    @pytest.mark.parametrize(
        "n,m",
        [(1, 1), (2, 1), (3, 2), (100, 99), (100, 100), (1000, 999),
         (10**5, 1), (10**5, 8), (10**5, 10**5 - 1), (10**5, 10**5)],
    )
    def test_peak_is_within_the_library_charge(self, n, m):
        def peak(n, m):
            tracemalloc.start()
            try:
                main(["teleport-demo", "--n", str(n), "--m", str(m), "--seed", "1"])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            peak(4, 2)  # first-call allocations are not the run's
            assert peak(n, m) <= channel.protocol_bytes(n, m)

    def test_a_run_over_the_cap_is_refused_before_any_draw(self, capsys, monkeypatch):
        # Its three N-level states fit the cap; its M-level blocks do not.
        def unreachable(*args, **kwargs):
            raise AssertionError("drew before the run was charged")

        monkeypatch.setattr(qcut.cli, "stream", unreachable)
        n = 1_300_000
        assert 48 * n < experiments.MEMORY_CAP < channel.protocol_bytes(n, n - 1)
        with pytest.raises(SystemExit) as err:
            main(["teleport-demo", "--n", str(n), "--m", str(n - 1), "--seed", "1"])
        assert err.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last == "qcut: error: teleport-demo would hold 258 MiB at once, above the 256 MiB cap"

    def test_a_run_over_the_cap_at_half_the_levels_is_refused_before_the_binomial(self, capsys, monkeypatch):
        # At M = N / 2, C(N - 1, M - 1) took most of a minute to compute
        # before the charge refused this run; the charge now comes first.
        def unreachable(*args, **kwargs):
            raise AssertionError("computed C(N-1, M-1) before the run was charged")

        monkeypatch.setattr(math, "comb", unreachable)
        with pytest.raises(SystemExit) as err:
            main(["teleport-demo", "--n", "2200000", "--m", "1100000", "--seed", "1"])
        assert err.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last == "qcut: error: teleport-demo would hold 269 MiB at once, above the 256 MiB cap"

    def test_the_binomial_is_computed_once_after_the_charge(self, capsys, monkeypatch):
        events, comb, charge = [], math.comb, experiments.check_memory
        monkeypatch.setattr(math, "comb", lambda *args: events.append(args) or comb(*args))
        monkeypatch.setattr(experiments, "check_memory", lambda *args: events.append("charged") or charge(*args))
        code, _ = run_cli(capsys, "teleport-demo", "--n", "96", "--m", "48", "--seed", "1")
        assert code == 0
        assert events == ["charged", (95, 47)]


class TestLargeCuts:
    # Past N of about 1030 at M = N / 2, C(N-1, M-1) no longer fits a float;
    # these runs used to end in OverflowError with a traceback.
    @pytest.mark.parametrize("n,m", [(1040, 520), (2000, 1000)])
    @pytest.mark.parametrize("mode,r", [("pure", 1), ("entangled", 2), ("mixed", 2), ("state-estimation", 1)])
    def test_estimate_completes(self, capsys, n, m, mode, r):
        argv = ["estimate", "--n", str(n), "--m", str(m), "--r", str(r), "--mode", mode, "--samples", "20", "--seed", "1"]
        code, out = run_cli(capsys, *argv)
        record = json.loads(out, parse_constant=reject_constant)
        assert code == (0 if abs(record["z_score"]) < 5.0 else 1)
        assert record["estimate"]["samples"] == 20
        assert 0.0 < record["estimate"]["mean"] < 1.0
        assert ("bures_max_deviation" in record["estimate"]) == (mode == "mixed")
        if mode == "mixed":
            assert record["estimate"]["bures_max_deviation"] < 1e-8

    @pytest.mark.parametrize("n,m", [(1040, 520), (2000, 1000)])
    def test_teleport_demo_completes(self, capsys, n, m):
        code, out = run_cli(capsys, "teleport-demo", "--n", str(n), "--m", str(m), "--seed", "1")
        values = parse_kv(out)
        assert code == 0
        assert len(ast.literal_eval(values["subset"])) == m
        assert float(values["outcome_probability"]) == 0.0  # printed to 12 places
        for key in ("cut_fidelity", "teleport_fidelity", "end_to_end_fidelity"):
            assert 0.0 <= float(values[key]) <= 1.0

    # The edge of the (N, M) range: one level kept, all but one, all of them,
    # at N = 2000 and 10^5, and half of N = 10^5, where C(N - 1, M - 1) has
    # about 30,100 digits.
    EDGES = [(2000, 1), (2000, 1999), (2000, 2000)]
    WIDE_EDGES = [(10**5, 1), (10**5, 10**5 - 1), (10**5, 10**5)]
    MODES = [("pure", 1), ("entangled", 2), ("state-estimation", 1)]

    @pytest.mark.parametrize(
        "n,m,mode,r,samples",
        [(n, m, mode, r, 20) for (n, m), (mode, r) in itertools.product(EDGES, [*MODES, ("mixed", 2)])]
        + [(n, m, mode, r, 2) for (n, m), (mode, r) in itertools.product([*WIDE_EDGES, (10**5, 5 * 10**4)], MODES)]
        + [(10**5, 1, "mixed", 2, 2)],
    )
    def test_estimate_at_the_edge_ends_with_its_report(self, capsys, monkeypatch, n, m, mode, r, samples):
        # A mixed run, whose Bures check holds M x M roots, may instead be
        # refused as a usage error before any draw.
        draws, stream = [], experiments.stream
        monkeypatch.setattr(experiments, "stream", lambda *args: draws.append(args) or stream(*args))
        argv = ["estimate", "--n", str(n), "--m", str(m), "--r", str(r), "--mode", mode, "--samples", str(samples)]
        try:
            code, out = run_cli(capsys, *argv, "--seed", "1")
        except SystemExit as err:
            assert (mode, err.code, draws) == ("mixed", 2, [])
            return
        record = json.loads(out, parse_constant=reject_constant)
        z = record["z_score"]
        assert code == (0 if z is not None and abs(z) < 5.0 else 1)
        assert record["estimate"]["samples"] == samples
        assert 0.0 < record["estimate"]["mean"] <= 1.0
        if m == n and mode != "state-estimation":
            assert record["estimate"]["mean"] == 1.0 and z == 0.0

    def test_mixed_at_half_of_a_wide_input_is_refused_before_any_draw(self, capsys, monkeypatch):
        # The Bures check of one shot holds its 5 * 10^4 x 5 * 10^4 root.
        def unreachable(*args, **kwargs):
            raise AssertionError("drew before the run was charged")

        monkeypatch.setattr(experiments, "stream", unreachable)
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--n", "100000", "--m", "50000", "--mode", "mixed", "--samples", "20", "--seed", "1"])
        assert err.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last == "qcut: error: a run would hold 114458 MiB at once, above the 256 MiB cap"

    @pytest.mark.parametrize("n,m", EDGES + WIDE_EDGES + [(10**5, 5 * 10**4)])
    def test_teleport_demo_at_the_edge_completes(self, capsys, n, m):
        code, out = run_cli(capsys, "teleport-demo", "--n", str(n), "--m", str(m), "--seed", "1")
        values = parse_kv(out)
        assert code == 0
        assert len(ast.literal_eval(values["subset"])) == m
        for key in ("outcome_probability", "cut_fidelity", "teleport_fidelity", "end_to_end_fidelity"):
            assert 0.0 <= float(values[key]) <= 1.0
        assert float(values["teleport_fidelity"]) == pytest.approx(1.0, abs=1e-12)
        if m == n:
            assert float(values["outcome_probability"]) == float(values["end_to_end_fidelity"]) == 1.0


# Whole transcripts of teleport-demo and estimate, pinned byte for byte.  An
# estimate's wall time is masked as WALL; its Bures deviation, masked as
# BURES, depends on round-off and is only held below 1e-8.
TELEPORT_5_2 = """\
n=5 m=2 seed=5
subset=(0, 2)
relabel=[0<-0, 1<-2]
message_a=0
message_b=0
outcome_probability=0.124248285519
cut_fidelity=0.496993142076
teleport_fidelity=1.000000000000
end_to_end_fidelity=0.496993142076
"""

TELEPORT_4_4 = """\
n=4 m=4 seed=3
subset=(0, 1, 2, 3)
relabel=[0<-0, 1<-1, 2<-2, 3<-3]
message_a=1
message_b=2
outcome_probability=1.000000000000
cut_fidelity=1.000000000000
teleport_fidelity=1.000000000000
end_to_end_fidelity=1.000000000000
"""

ESTIMATE_PURE = """\
{
  "config": {
    "n": 3,
    "m": 2,
    "r": 1,
    "mode": "pure",
    "samples": 400,
    "seed": 11,
    "shards": 16
  },
  "estimate": {
    "mean": 0.743703124164,
    "stderr": 0.009642807889,
    "samples": 400,
    "seed": 11
  },
  "analytic_target": 0.75,
  "z_score": -0.653012681458,
  "wall_time_seconds": WALL
}
"""

ESTIMATE_ENTANGLED = """\
{
  "config": {
    "n": 4,
    "m": 2,
    "r": 3,
    "mode": "entangled",
    "samples": 400,
    "seed": 11,
    "shards": 16
  },
  "estimate": {
    "mean": 0.541432824934,
    "stderr": 0.006427494968,
    "samples": 400,
    "seed": 11
  },
  "analytic_target": 0.538461538462,
  "z_score": 0.462277526013,
  "wall_time_seconds": WALL
}
"""

ESTIMATE_MIXED = """\
{
  "config": {
    "n": 3,
    "m": 2,
    "r": 2,
    "mode": "mixed",
    "samples": 400,
    "seed": 11,
    "shards": 16
  },
  "estimate": {
    "mean": 0.711791799958,
    "stderr": 0.007785657025,
    "samples": 400,
    "seed": 11,
    "bures_max_deviation": BURES
  },
  "analytic_target": 0.714285714286,
  "z_score": -0.320321627282,
  "wall_time_seconds": WALL
}
"""

ESTIMATE_STATE_ESTIMATION = """\
{
  "config": {
    "n": 5,
    "m": 2,
    "r": 1,
    "mode": "state_estimation",
    "samples": 400,
    "seed": 11,
    "shards": 16
  },
  "estimate": {
    "mean": 0.253182849143,
    "stderr": 0.009105405162,
    "samples": 400,
    "seed": 11
  },
  "analytic_target": 0.25,
  "z_score": 0.349556014943,
  "wall_time_seconds": WALL
}
"""

ESTIMATE = ("estimate", "--samples", "400", "--seed", "11")


def masked(out):
    out = re.sub(r'("wall_time_seconds": )[^\n]*', r"\1WALL", out)
    return re.sub(r'("bures_max_deviation": )[^,\n]*', r"\1BURES", out)


class TestGoldenTranscripts:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("teleport-demo", "--n", "5", "--m", "2", "--seed", "5"), TELEPORT_5_2),
            (("teleport-demo", "--n", "4", "--m", "4", "--seed", "3"), TELEPORT_4_4),
            (ESTIMATE + ("--n", "3", "--m", "2", "--mode", "pure"), ESTIMATE_PURE),
            (ESTIMATE + ("--n", "4", "--m", "2", "--r", "3", "--mode", "entangled"), ESTIMATE_ENTANGLED),
            (
                ESTIMATE + ("--n", "3", "--m", "2", "--r", "2", "--mode", "mixed", "--verify-bures"),
                ESTIMATE_MIXED,
            ),
            # The flag is implied: mixed mode always runs its Bures check.
            (ESTIMATE + ("--n", "3", "--m", "2", "--r", "2", "--mode", "mixed"), ESTIMATE_MIXED),
            (ESTIMATE + ("--n", "5", "--m", "2", "--mode", "state-estimation"), ESTIMATE_STATE_ESTIMATION),
        ],
        ids=["teleport-5-2", "teleport-4-4", "pure", "entangled", "mixed-bures", "mixed", "state-estimation"],
    )
    def test_transcript(self, capsys, argv, expected):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert masked(out) == expected
        if "BURES" in expected:
            assert json.loads(out)["estimate"]["bures_max_deviation"] < 1e-8
