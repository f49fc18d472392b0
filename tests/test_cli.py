import json

import numpy as np
import pytest

from framescale import (
    FlowState,
    Frame,
    SeedSpec,
    build_expansion_report,
    gradient_flow_step,
    load_frame,
    sample_sphere_frame,
    save_matrix_text,
)
from framescale.cli import main


@pytest.fixture
def frame_file(tmp_path):
    path = tmp_path / "frame.txt"
    save_matrixes = np.array(
        [[1.0, 0.0, 2.0**-0.5], [0.0, 1.0, 2.0**-0.5]]
    )
    save_matrix_text(path, Frame(save_matrixes))
    return str(path)


@pytest.fixture
def sphere_file(tmp_path):
    path = tmp_path / "sphere.txt"
    save_matrix_text(path, sample_sphere_frame(4, 16, SeedSpec(5, 0)))
    return str(path)


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.txt"
    save_matrix_text(path, np.diag([2.0, 1.0]), kind="data")
    return str(path)


class TestEstimate:
    def test_writes_result_json(self, frame_file, tmp_path):
        out = tmp_path / "est.json"
        code = main(["estimate", "--input", frame_file, "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert payload["d"] == 2
        assert len(payload["sigma_hat"]) == 4
        assert payload["capacity_trace"]

    def test_capacity_trace_has_every_iterate(self, sphere_file, tmp_path):
        out = tmp_path / "est.json"
        assert main(["estimate", "--input", sphere_file, "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        trace = payload["capacity_trace"]
        assert payload["converged"] is True
        assert len(trace) == payload["iterations"] + 1
        # non-increasing up to round-off near the fixed point
        assert all(later <= earlier + 1e-10 for earlier, later in zip(trace, trace[1:]))

    @pytest.mark.parametrize("flag", [["--tol", "-1"], ["--tol", "0"],
                                      ["--tol", "nan"], ["--max-iters", "0"]])
    def test_bad_stopping_rule_is_config_error(self, frame_file, flag):
        assert main(["estimate", "--input", frame_file, *flag]) == 2

    def test_accepts_data_variant(self, data_file, tmp_path):
        out = tmp_path / "est.json"
        code = main(["estimate", "--input", data_file, "--json", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["converged"] is True

    def test_missing_input_is_config_error(self, tmp_path):
        code = main(["estimate", "--input", str(tmp_path / "nope.txt")])
        assert code == 2


class TestScale:
    @pytest.mark.parametrize("method", ["flipflop", "flow"])
    def test_writes_csv_and_json(self, data_file, tmp_path, method):
        csv = tmp_path / "traj.csv"
        out = tmp_path / "scale.json"
        code = main([
            "scale", "--input", data_file, "--method", method,
            "--csv", str(csv), "--json", str(out),
        ])
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "time,size,op_error_E,op_error_F,delta,int_E_op,int_F_op"
        assert len(lines) >= 2
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert len(payload["right"]) == 2

    @pytest.mark.parametrize("method, tol", [
        pytest.param("flipflop", [], id="flipflop"),
        pytest.param("flow", [], id="flow"),
        # 50 rounds: the final state is a tenth step and is written once
        pytest.param("flipflop", ["--tol", "1e-10"], id="flipflop-tol1e-10"),
    ])
    def test_trajectory_row_every_ten_steps(self, sphere_file, tmp_path, method,
                                            tol):
        csv = tmp_path / "traj.csv"
        out = tmp_path / "scale.json"
        assert main(["scale", "--input", sphere_file, "--method", method,
                     "--csv", str(csv), "--json", str(out), *tol]) == 0
        iterations = json.loads(out.read_text())["iterations"]
        rows = [[float(v) for v in line.split(",")]
                for line in csv.read_text().splitlines()[1:]]
        assert iterations >= 10
        assert len(rows) == -(-iterations // 10)
        if method == "flipflop":
            rounds = sorted({*range(10, iterations + 1, 10), iterations})
            assert [r[0] for r in rows] == [float(k) for k in rounds]

    def test_flow_trajectory_ends_at_flow_time(self, sphere_file, tmp_path):
        csv = tmp_path / "traj.csv"
        out = tmp_path / "scale.json"
        assert main(["scale", "--input", sphere_file, "--method", "flow",
                     "--csv", str(csv), "--json", str(out)]) == 0
        iterations = json.loads(out.read_text())["iterations"]
        state = FlowState.start(load_frame(sphere_file))
        for _ in range(iterations):
            state = gradient_flow_step(state)
        last = [float(v) for v in csv.read_text().splitlines()[-1].split(",")]
        assert last[0] == state.time
        assert last[5:] == [state.int_isotropy_op, state.int_norm_op]

    @pytest.mark.parametrize("method", ["flipflop", "flow"])
    def test_csv_of_huge_input_has_the_rows_of_size_one(self, tmp_path, method):
        # the raw input's report overflows at size 1e200; only a solve that
        # takes no step writes it
        frame = sample_sphere_frame(4, 16, SeedSpec(2, 4))
        rows = []
        for scale in (1.0, 1e100):
            path = tmp_path / "frame.txt"
            csv = tmp_path / "traj.csv"
            save_matrix_text(path, Frame(frame.entries * scale))
            assert main(["scale", "--input", str(path), "--method", method,
                         "--csv", str(csv)]) == 0
            rows.append(csv.read_text().splitlines())
        assert len(rows[1]) == len(rows[0]) > 1

    def test_input_at_tolerance_writes_its_own_row(self, tmp_path):
        path = tmp_path / "identity.txt"
        csv = tmp_path / "traj.csv"
        save_matrix_text(path, Frame(np.eye(3)))
        assert main(["scale", "--input", str(path), "--csv", str(csv)]) == 0
        assert csv.read_text().splitlines()[1].split(",")[:3] == ["0", "3", "0"]

    @pytest.mark.parametrize("method", ["flipflop", "flow"])
    def test_no_balancing_scaling_is_a_result(self, tmp_path, method):
        path = tmp_path / "two_heavy.txt"
        save_matrix_text(path, np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        out = tmp_path / "scale.json"
        assert main(["scale", "--input", str(path), "--method", method,
                     "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is False
        assert "diverged" in payload["failure"]

    def test_non_spanning_input_is_config_error(self, tmp_path):
        path = tmp_path / "flat.txt"
        save_matrix_text(path, np.array([[1.0, 2.0], [0.0, 0.0]]), kind="data")
        code = main(["scale", "--input", str(path)])
        assert code == 2


class TestExpansion:
    def test_exact_from_sampled_frame(self, tmp_path):
        out = tmp_path / "exp.json"
        code = main([
            "expansion", "--d", "4", "--n", "8", "--seed", "3",
            "--mode", "exact", "--beta", "1/2", "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "exact"
        assert payload["lambda_infty"] is not None
        assert payload["alpha_min"] <= payload["alpha_max"]

    def test_sampled_mode(self, tmp_path):
        out = tmp_path / "exp.json"
        code = main([
            "expansion", "--d", "4", "--n", "24", "--seed", "3",
            "--mode", "sampled", "--subsets", "64", "--json", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["mode"] == "sampled"

    def test_input_file(self, tmp_path):
        path = tmp_path / "frame.txt"
        save_matrix_text(path, sample_sphere_frame(4, 8, SeedSpec(5, 1)))
        out = tmp_path / "exp.json"
        assert main(["expansion", "--input", str(path), "--seed", "7",
                     "--json", str(out)]) == 0
        assert out.read_text() == build_expansion_report(
            load_frame(path), seed=SeedSpec(7, 1)).to_json()

    def test_odd_n_exact_is_config_error(self):
        assert main(["expansion", "--d", "3", "--n", "7", "--mode", "exact"]) == 2

    def test_needs_input_or_dims(self):
        assert main(["expansion", "--mode", "exact"]) == 2


class TestExperimentCommands:
    def test_sample_complexity_deterministic_bytes(self, tmp_path):
        args = ["experiment", "sample-complexity", "--d", "3",
                "--n-grid", "6,12", "--trials", "3", "--seed", "5"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--csv", str(first)]) == 0
        assert main(args + ["--csv", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_convergence_csv(self, tmp_path):
        csv = tmp_path / "conv.csv"
        code = main([
            "experiment", "convergence", "--d", "3", "--n", "12",
            "--trials", "2", "--seed", "5", "--tol", "1e-8",
            "--csv", str(csv),
        ])
        assert code == 0
        text = csv.read_text()
        assert "trial,iter,frobenius_gap_to_limit,capacity,residual" in text
        assert "# tail_ratios_at_most_0.95=2/2" in text

    def test_survey_with_summary_json(self, tmp_path):
        csv = tmp_path / "survey.csv"
        summary = tmp_path / "survey.json"
        code = main([
            "experiment", "expansion-survey", "--d", "4", "--n-grid", "8",
            "--trials", "2", "--seed", "5", "--mode", "exact",
            "--csv", str(csv), "--json", str(summary),
        ])
        assert code == 0
        assert "lambda_positive" in json.loads(summary.read_text())
        assert csv.read_text().count("\n") >= 5

    def test_bad_flag_exits_2(self):
        assert main(["experiment", "sample-complexity", "--d", "3",
                     "--n-grid", "x,y"]) == 2

    @pytest.mark.parametrize("flag", [["--radial", "t:inf"],
                                      ["--shape", "cond:inf"]])
    def test_non_finite_parameter_is_parse_error(self, flag, capsys):
        code = main(["experiment", "sample-complexity", "--d", "3",
                     "--n-grid", "6", "--trials", "1"] + flag)
        assert code == 2
        assert f"argument {flag[0]}" in capsys.readouterr().err


class TestDiagnose:
    def test_derivatives_pass(self, capsys):
        code = main(["diagnose", "derivatives", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "# status=PASS" in captured.out

    def test_json_output(self, tmp_path):
        out = tmp_path / "diag.csv"
        code = main(["diagnose", "derivatives", "--seed", "1",
                     "--json", str(out)])
        assert code == 0
        assert "# status=PASS" in out.read_text()


class TestParser:
    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
