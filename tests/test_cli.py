"""Command-line interface: outputs, exit codes, determinism."""

import csv
import io
import json
import time

import pytest

import entdist.cli as cli
from entdist.cli import (
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    MAX_DENSE_BYTES,
    dense_bytes,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestFef:
    def test_benchmark(self, capsys):
        payload = run_json(capsys, "fef", "--dim", "2", "--spectrum", "0.8,0.2")
        assert payload["fef"] == pytest.approx(0.9, abs=1e-12)
        assert payload["negativity"] == pytest.approx(0.4, abs=1e-12)
        assert payload["relation_ok"]

    def test_uniform_preset(self, capsys):
        payload = run_json(capsys, "fef", "--dim", "3", "--spectrum", "uniform")
        assert payload["fef"] == pytest.approx(1.0, abs=1e-12)

    def test_product_preset(self, capsys):
        payload = run_json(capsys, "fef", "--dim", "2", "--spectrum", "product")
        assert payload["fef"] == pytest.approx(0.5, abs=1e-12)

    def test_amplitude_input(self, capsys):
        amp = "0.894427190999916,0.447213595499958"
        payload = run_json(
            capsys, "fef", "--dim", "2", "--spectrum", amp, "--amplitudes"
        )
        assert payload["fef"] == pytest.approx(0.9, abs=1e-12)

    def test_csv_output_parses(self, capsys):
        code, out, _ = run(capsys, "fef", "--dim", "2", "--spectrum", "uniform",
                           "--csv")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["fef"]) == pytest.approx(1.0, abs=1e-12)


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        argv = ("sandwich", "--dim", "2", "--spectrum", "0.8,0.2")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_seeded_spectrum_is_reproducible(self, capsys):
        argv = ("fef", "--dim", "3", "--spectrum", "random", "--seed", "11")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestExitCodes:
    def test_unnormalized_spectrum(self, capsys):
        code, _, err = run(capsys, "fef", "--dim", "2", "--spectrum", "0.8,0.3")
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_nan_spectrum(self, capsys):
        code, out, err = run(capsys, "fef", "--dim", "2", "--spectrum", "nan,0.5")
        assert code == EXIT_INPUT
        assert out == ""
        assert "error:" in err

    def test_wrong_length_spectrum(self, capsys):
        code, _, _ = run(capsys, "fef", "--dim", "3", "--spectrum", "0.8,0.2")
        assert code == EXIT_INPUT

    def test_corrupt_basis_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "unitaries": "garbage"}')
        code, _, err = run(capsys, "basis", "--basis-file", str(bad))
        assert code == EXIT_INPUT
        assert "malformed" in err

    def test_non_list_unitaries_in_basis_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "unitaries": [1, 2]}')
        code, _, err = run(capsys, "basis", "--basis-file", str(bad))
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_basis_file_dim_mismatch(self, capsys, tmp_path):
        import numpy as np

        from entdist.states import dump_basis_file, weyl_basis

        path = tmp_path / "weyl3.json"
        dump_basis_file(weyl_basis(3), path)
        code, _, _ = run(
            capsys, "fef", "--dim", "2", "--spectrum", "uniform",
            "--basis-file", str(path),
        )
        assert code == EXIT_INPUT

    def test_nonpositive_tolerance(self, capsys):
        code, _, _ = run(
            capsys, "certificate", "--dim", "2", "--spectrum", "uniform",
            "--tol", "0",
        )
        assert code == EXIT_INPUT

    def test_starved_solver_is_a_numerical_failure(self, capsys):
        code, _, err = run(
            capsys, "sandwich", "--dim", "2", "--spectrum", "0.8,0.2",
            "--max-iters", "10",
        )
        assert code == EXIT_NUMERICAL
        assert "agreement failed" in err

    def test_unconverged_sdp_is_a_numerical_failure_with_a_report(self, capsys):
        code, out, _ = run(
            capsys, "sdp", "--dim", "2", "--spectrum", "0.8,0.2",
            "--max-iters", "10",
        )
        assert code == EXIT_NUMERICAL
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["iterations"] == 10

    def test_oversized_run_is_refused(self, capsys):
        code, out, err = run(capsys, "certificate", "--dim", "20")
        assert code == EXIT_INPUT
        assert out == ""
        assert "error:" in err and "GiB" in err

    @pytest.mark.parametrize("command", ["fef", "basis", "protocol", "bounds"])
    def test_oversized_basis_is_refused_before_it_is_built(
        self, capsys, tmp_path, monkeypatch, command
    ):
        def never(*args, **kwargs):
            raise AssertionError("the basis was built")

        monkeypatch.setattr(cli, "weyl_basis", never)
        monkeypatch.setattr(cli, "basis_from_entries", never)
        if command == "fef":
            # only a basis file makes fef build a basis
            path = tmp_path / "huge.json"
            path.write_text('{"dim": 100, "unitaries": []}')
            argv = [command, "--basis-file", str(path)]
        else:
            argv = [command, "--dim", "100"]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_INPUT
        assert out == ""
        assert "error:" in err and "GiB" in err

    @pytest.mark.parametrize("as_csv", [False, True])
    def test_non_finite_report_is_a_numerical_failure(self, capsys, monkeypatch, as_csv):
        def handler(config):
            payload = {"command": "fef", "fef": float("nan")}
            return EXIT_OK, payload, [{"fef": float("nan")}]

        monkeypatch.setitem(cli._HANDLERS, "fef", handler)
        argv = ["fef", "--dim", "2"] + (["--csv"] if as_csv else [])
        code, out, err = run(capsys, *argv)
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert "numerical failure:" in err


class TestBasisUse:
    def test_fef_builds_no_basis(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("fef built a basis")

        monkeypatch.setattr(cli, "weyl_basis", never)
        payload = run_json(capsys, "fef", "--dim", "16")
        assert payload["fef"] == pytest.approx(1.0, abs=1e-12)

    def test_fef_still_validates_a_basis_file(self, capsys, tmp_path):
        path = tmp_path / "twice.json"
        identity = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        path.write_text(json.dumps({"dim": 2, "unitaries": [identity] * 4}))
        code, out, err = run(capsys, "fef", "--basis-file", str(path))
        assert code == EXIT_INPUT
        assert out == ""
        assert "basis rejected" in err


class TestSizeEstimate:
    def test_counts_dense_matrices(self):
        matrix = 16 * 3**8
        assert dense_bytes("certificate", 3, 9) == 8 * matrix
        assert dense_bytes("verify", 3, 9) == 8 * matrix
        assert dense_bytes("sdp", 3, 8) == (16 * 8 + 16) * matrix
        assert dense_bytes("sdp", 3, 9) == (16 + 18) * matrix
        assert dense_bytes("sandwich", 3, 9) == (16 + 18 + 8) * matrix

    def test_limit_separates_the_sizes_that_run_from_the_ones_that_cannot(self):
        assert dense_bytes("sandwich", 5, 25) < MAX_DENSE_BYTES
        assert dense_bytes("certificate", 5, 25) < MAX_DENSE_BYTES
        assert dense_bytes("sdp", 6, 35) > MAX_DENSE_BYTES
        assert dense_bytes("certificate", 20, 400) > MAX_DENSE_BYTES

    @pytest.mark.parametrize("command", ["fef", "basis", "protocol", "bounds"])
    def test_basis_commands_count_basis_sized_arrays(self, command):
        assert dense_bytes(command, 3, 9) == 16 * 16 * 3**4
        assert dense_bytes(command, 3, 4) == dense_bytes(command, 3, 9)
        assert dense_bytes(command, 64, 64**2) <= MAX_DENSE_BYTES
        assert dense_bytes(command, 65, 65**2) > MAX_DENSE_BYTES


class TestCommands:
    def test_protocol_with_sampling(self, capsys):
        payload = run_json(
            capsys, "protocol", "--dim", "2", "--spectrum", "0.8,0.2",
            "--shots", "2000", "--seed", "3",
        )
        assert payload["value"] == pytest.approx(0.9, abs=1e-12)
        assert abs(payload["sampled_value"] - 0.9) < 0.05
        assert payload["shots"] == 2000

    def test_certificate_reports_feasibility(self, capsys):
        payload = run_json(
            capsys, "certificate", "--dim", "2", "--spectrum", "0.8,0.2"
        )
        assert payload["trace_value"] == pytest.approx(0.9, abs=1e-12)
        assert payload["feasibility"]["passed"]
        assert payload["upsilon"]["passed"]

    def test_sdp_value(self, capsys):
        payload = run_json(capsys, "sdp", "--dim", "2", "--spectrum", "0.8,0.2")
        assert payload["primal_value"] == pytest.approx(0.9, abs=1e-3)
        assert payload["converged"]

    def test_bounds_three_states(self, capsys):
        payload = run_json(
            capsys, "bounds", "--dim", "2", "--spectrum", "0.8,0.2",
            "--n-states", "3",
        )
        assert payload["lower"] == pytest.approx(14.0 / 15.0, abs=1e-10)
        assert payload["upper"] == pytest.approx(1.0)
        assert payload["assignments"] == [2]

    def test_bounds_projector_strategy(self, capsys):
        payload = run_json(
            capsys, "bounds", "--dim", "2", "--spectrum", "0.8,0.2",
            "--n-states", "3", "--strategy", "projector",
        )
        assert payload["strategy"] == "projector"
        assert payload["lower"] == pytest.approx(14.0 / 15.0, abs=1e-10)

    def test_sandwich_agreement(self, capsys):
        payload = run_json(
            capsys, "sandwich", "--dim", "2", "--spectrum", "0.8,0.2"
        )
        assert payload["agreement"]
        assert payload["lower"] == pytest.approx(0.9, abs=1e-10)
        assert abs(payload["sdp_value"] - 0.9) < 1e-3

    def test_verify_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--dim", "2", "--spectrum", "0.8,0.2", "--seed", "1"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["passed"]
        assert all(check["passed"] for check in payload["checks"])

    def test_verify_preset_sweep(self, capsys):
        payload = run_json(capsys, "verify", "--dim", "2", "--seed", "1")
        assert payload["passed"]
        labels = {check["check"].split(":")[0] for check in payload["checks"]
                  if ":" in check["check"]}
        assert {"uniform", "product", "random"} <= labels


class TestFiles:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "fef.json"
        code, out, _ = run(
            capsys, "fef", "--dim", "2", "--spectrum", "uniform",
            "--out", str(target),
        )
        assert code == EXIT_OK
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["fef"] == pytest.approx(1.0, abs=1e-12)

    def test_basis_dump_round_trips(self, capsys, tmp_path):
        import numpy as np

        from entdist.states import load_basis_file, weyl_basis

        target = tmp_path / "basis.json"
        code, _, _ = run(capsys, "basis", "--dim", "3", "--dump", str(target))
        assert code == EXIT_OK
        loaded = load_basis_file(target)
        for u, v in zip(loaded.unitaries, weyl_basis(3).unitaries):
            assert np.allclose(u, v, atol=1e-15)

    def test_basis_file_feeds_protocol(self, capsys, tmp_path):
        from entdist.states import dump_basis_file, weyl_basis

        path = tmp_path / "weyl2.json"
        dump_basis_file(weyl_basis(2), path)
        payload = run_json(
            capsys, "protocol", "--spectrum", "0.8,0.2",
            "--basis-file", str(path),
        )
        assert payload["value"] == pytest.approx(0.9, abs=1e-12)
