"""Command-line interface: outputs, exit codes, determinism."""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import re
import shlex
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import entdist.cli as cli
from entdist.cli import (
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    MAX_DENSE_BYTES,
    dense_bytes,
    main,
)
from entdist.sdp import solve_bytes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestFef:
    def test_uniform_spectrum_at_a_million_dimensions(self, capsys):
        """fef rounds the sum of the d coefficients once, so it stays at 1
        to the last bits; a sequential sum drifted to 1 - 3.3e-11."""
        code, out, _ = run(capsys, "fef", "--dim", "1000000", "--spectrum", "uniform", "--csv")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert abs(float(rows[0]["fef"]) - 1.0) <= 1e-15

    def test_relation_holds_at_a_million_dimensions(self):
        """negativity rounds its two sums once each; sequential suffix sums
        drifted to a relation defect of 1.2e-11 on this spectrum. The JSON
        report is read from the handler: formatting its 2 * 10^6 listed
        numbers would take the test several seconds."""
        argv = ["fef", "--dim", "1000000", "--spectrum", "uniform"]
        config = cli.resolve_config(cli.build_parser().parse_args(argv))
        code, payload, _ = cli.cmd_fef(config)
        assert code == EXIT_OK
        assert payload["relation_ok"] is True
        assert payload["negativity"] == pytest.approx(499999.5, rel=1e-15)

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("--spectrum", "1e308,1e308"),
            ("--amplitudes", "--spectrum", "1.2e154,1.2e154"),
        ],
        ids=["probabilities", "amplitudes"],
    )
    def test_spectrum_whose_squares_overflow(self, capsys, argv):
        code, out, err = run(capsys, "fef", "--dim", "2", *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and "at most 1" in err

    def test_non_finite_basis_file_entry(self, capsys, tmp_path):
        from entdist.states import dump_basis_file, weyl_basis

        path = tmp_path / "weyl2.json"
        dump_basis_file(weyl_basis(2), path)
        text = path.read_text()
        # The imaginary part of the last entry of unitary 3.
        i = text.rindex("0.0")
        path.write_text(text[:i] + "NaN" + text[i + 3 :])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "basis", "--basis-file", str(path))
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: unitary 3 has a non-finite entry\n"

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
            capsys, "protocol", "--dim", "2", "--spectrum", "uniform",
            "--basis-file", str(path),
        )
        assert code == EXIT_INPUT

    def test_nonpositive_tolerance(self, capsys):
        # Also the non-finite values, which a plain "<= 0" test lets through
        # (sdp --accuracy=nan ran all 50,000 iterations), and the negative or
        # too small counts.
        cases = [
            (command, f"{flag}={value}")
            for command, flag in (("certificate", "--tol"), ("sdp", "--accuracy"))
            for value in ("0", "nan", "inf", "-inf")
        ]
        cases += [("protocol", "--shots=-5"), ("sweep", "--steps=1"), ("sweep", "--steps=0")]
        cases += [
            ("protocol", "--seed=-1", "--shots=5"),
            ("fef", "--seed=-1", "--spectrum=random"),
            ("verify", "--seed=-1"),
        ]
        for command, *flags in cases:
            # sweep runs at d = 2 only and takes no --dim
            dim = [] if command == "sweep" else ["--dim", "2"]
            start = time.perf_counter()
            code, out, err = run(capsys, command, *dim, *flags)
            assert time.perf_counter() - start < 0.5, flags
            assert code == EXIT_INPUT, flags
            assert out == ""
            assert "error:" in err
            if "--seed=-1" in flags:
                assert err == "error: --seed must be a non-negative integer, got -1\n"

    def test_shots_beyond_a_64_bit_count_are_refused(self, capsys):
        # The multinomial draw takes a 64-bit count and raised OverflowError;
        # the run-time bound on --shots refuses such counts long before.
        for shots in (2**63, 99999999999999999999):
            code, out, err = run(capsys, "protocol", "--dim", "2", "--shots", str(shots))
            assert code == EXIT_INPUT
            assert out == ""
            assert err == f"error: --shots must be at most 1000000000, got {shots}\n"

    @pytest.mark.parametrize(
        "command, flag, limit",
        [("protocol", "--shots", 10**9), ("sweep", "--steps", 10**5)],
    )
    def test_a_run_that_would_take_hours_is_refused(self, capsys, command, flag, limit):
        """10^9 shots take about 20 s and 10^5 sweep steps about 10 s, or
        2 min with --sdp; ten times as many would take minutes to hours.
        Both bounds fit in memory, so only the run-time bound refuses."""
        config = cli.resolve_config(cli.parse_args([command, flag, str(limit)]))
        assert getattr(config, flag[2:]) == limit
        for value in (limit + 1, 10 * limit):
            start = time.perf_counter()
            code, out, err = run(capsys, command, flag, str(value))
            assert time.perf_counter() - start < 0.5
            assert code == EXIT_INPUT
            assert out == ""
            assert err == f"error: {flag} must be at most {limit}, got {value}\n"

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

    def test_unconverged_sandwich_is_a_numerical_failure_with_a_report(self, capsys):
        # The loose accuracy lets the three routes agree after 5 iterations,
        # where the certified gap (0.26) is still wider than it; after 10 it
        # is 0.14 and the capped solve converges.
        code, out, _ = run(
            capsys, "sandwich", "--dim", "2", "--max-iters", "5", "--accuracy", "0.5"
        )
        assert code == EXIT_NUMERICAL
        payload = json.loads(out)
        assert payload["agreement"] is True
        assert payload["sdp"]["converged"] is False
        assert payload["sdp"]["iterations"] == 5

    def test_infeasible_certificate_in_sandwich_is_a_numerical_failure(self, capsys):
        # The smallest margin, -3.5e-18, fails only the threshold -1e-300.
        argv = ["--dim", "3", "--spectrum", "random", "--seed", "0", "--tol", "1e-300"]
        code, out, err = run(capsys, "sandwich", *argv)
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err.startswith("numerical failure: certificate is not dual feasible")
        code, out, _ = run(capsys, "certificate", *argv)
        assert code == EXIT_NUMERICAL
        assert json.loads(out)["passed"] is False

    def test_oversized_run_is_refused(self, capsys):
        code, out, err = run(capsys, "certificate", "--dim", "65")
        assert code == EXIT_INPUT
        assert out == ""
        assert "error:" in err and "GiB" in err

    def test_oversized_spectrum_is_refused_before_it_is_built(self, capsys, monkeypatch):
        # fef builds no basis, but its spectrum holds d numbers
        code, out, _ = run(capsys, "fef", "--dim", "10000")
        assert code == EXIT_OK and json.loads(out)["dim"] == 10000

        def never(*args, **kwargs):
            raise AssertionError("the spectrum was built")

        monkeypatch.setattr(cli, "parse_spectrum", never)
        start = time.perf_counter()
        code, out, err = run(capsys, "fef", "--dim", "1000000000")
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: fef at d=1000000000 needs about ")
        assert "GiB" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fef", "--dim", "2", "--out", ""],
            ["fef", "--dim", "2", "--out="],
            ["basis", "--dim", "2", "--dump", ""],
            ["certificate", "--dim", "2", "--csv", "--out", ""],
        ],
    )
    def test_empty_paths_are_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        flag = "--dump" if "--dump" in argv else "--out"
        assert err == f"error: {flag} needs a file name, got an empty path\n"

    @pytest.mark.parametrize("command", ["basis", "protocol", "bounds", "scan", "certificate"])
    def test_oversized_basis_is_refused_before_it_is_built(self, capsys, monkeypatch, command):
        def never(*args, **kwargs):
            raise AssertionError("the basis was built")

        monkeypatch.setattr(cli, "weyl_basis", never)
        monkeypatch.setattr(cli, "basis_from_entries", never)
        # the spectrum too holds d numbers, so it waits for the guard as well
        monkeypatch.setattr(cli, "parse_spectrum", never)
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--dim", "100")
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

    def test_numpy_values_are_emitted_as_their_plain_equivalents(self, capsys):
        """The JSON encoder's hook converts numpy scalars and arrays where
        they occur, with the bytes of the plain Python report."""
        config = cli.resolve_config(cli.build_parser().parse_args(["fef"]))
        payload = {
            "float": np.float64(0.1),
            "int": np.int64(-7),
            "bool": np.bool_(True),
            "pair": (np.int64(1), 2.5),
            "array": np.array([[0.25, 1.0], [2.0, -3.5]]),
            "nested": {"values": [np.float64(1e-17), np.bool_(False)]},
        }
        plain = {
            "float": 0.1,
            "int": -7,
            "bool": True,
            "pair": [1, 2.5],
            "array": [[0.25, 1.0], [2.0, -3.5]],
            "nested": {"values": [1e-17, False]},
        }
        cli.emit(config, payload, [{}])
        out = capsys.readouterr().out
        assert out == json.dumps(plain, sort_keys=True, indent=2) + "\n"
        cli.emit(config, plain, [{}])
        assert capsys.readouterr().out == out

    def test_a_float32_nan_is_refused(self, capsys):
        config = cli.resolve_config(cli.build_parser().parse_args(["fef"]))
        with pytest.raises(RuntimeError, match="non-finite"):
            cli.emit(config, {"fef": np.float32("nan")}, [{}])
        assert capsys.readouterr().out == ""


    def test_oversized_sweep_is_refused_before_its_grid_is_built(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(np, "linspace", never)
        code, out, err = run(capsys, "sweep", "--steps", "10000000000000")
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: sweep with 10000000000000 steps needs about ")
        assert "GiB" in err
        # the default grid is far below the limit
        cli._check_size("sweep", 2, 4, True, 26)

    def test_scan_is_sized_by_its_largest_solve(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the basis was built")

        # the bounds alone fit at d = 6; the solve at N = 35 does not
        assert dense_bytes("bounds", 6, 36) < MAX_DENSE_BYTES
        monkeypatch.setattr(cli, "weyl_basis", never)
        code, out, err = run(capsys, "scan", "--dim", "6", "--sdp")
        assert code == EXIT_INPUT
        assert out == ""
        assert "error:" in err and "37.7 GiB" in err

    def test_failed_parse_leaves_the_cached_parser_usable(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        argv = ("fef", "--dim", "2", "--spectrum", "0.8,0.2")
        _, before, _ = run(capsys, *argv)
        with pytest.raises(SystemExit) as exit_info:
            main(["fef", "--dim", "x"])
        assert exit_info.value.code == EXIT_INPUT
        capsys.readouterr()
        code, after, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert after == before


# The flags each subcommand reads besides --out and --csv, written out apart
# from the CLI's own table.
_SPECTRUM = {"--dim", "--spectrum", "--amplitudes", "--seed"}
_SOLVER = {"--accuracy", "--max-iters"}
_READS = {
    "fef": _SPECTRUM,
    "basis": {"--dim", "--basis-file", "--dump"},
    "protocol": _SPECTRUM | {"--basis-file", "--shots"},
    "certificate": _SPECTRUM | {"--basis-file", "--n-states", "--tol"},
    "sdp": _SPECTRUM | {"--basis-file", "--n-states"} | _SOLVER,
    "bounds": _SPECTRUM | {"--basis-file", "--n-states", "--strategy"},
    "sandwich": _SPECTRUM | {"--basis-file", "--n-states", "--tol", "--strategy"} | _SOLVER,
    "verify": _SPECTRUM | {"--basis-file", "--tol"},
    "sweep": {"--basis-file", "--steps", "--sdp"} | _SOLVER,
    "scan": _SPECTRUM | {"--basis-file", "--sdp"} | _SOLVER,
}


def _subparsers() -> dict:
    """Each subcommand's parser, read off the CLI's parser."""
    (action,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


class TestFlags:
    def test_each_subcommand_offers_exactly_the_flags_it_reads(self):
        offered = {
            name: {flag for a in parser._actions for flag in a.option_strings} - {"-h", "--help"}
            for name, parser in _subparsers().items()
        }
        assert offered == {name: flags | {"--out", "--csv"} for name, flags in _READS.items()}
        # 125 when every subcommand took every flag
        assert sum(len(flags) for flags in offered.values()) == 84

    def test_a_flag_not_offered_exits_2_and_is_named(self, capsys):
        every = set().union(*_READS.values())
        argvs = [
            [command, flag] + ([] if flag in ("--amplitudes", "--sdp") else ["1"])
            for command in _READS
            for flag in sorted(every - _READS[command])
        ]
        # sweep reads none of these three, and basis reads no spectrum
        argvs.append(
            "sweep --steps 3 --spectrum 0.9,0.1 --n-states 2 --strategy projector".split()
        )
        argvs.append("basis --dim 2 --spectrum 0.3,0.3".split())
        # the 10 x 14 (subcommand, flag) pairs less the 64 offered, and the two above
        assert len(argvs) == 10 * len(every) - 64 + 2
        for argv in argvs:
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            out, err = capsys.readouterr()
            assert exit_info.value.code == EXIT_INPUT, argv
            assert out == ""
            refused = err.splitlines()[-1]
            assert refused.startswith("entdist: error: unrecognized arguments: "), err
            refused_flags = [a for a in argv if a.startswith("--") and a not in _READS[argv[0]]]
            assert refused_flags and all(flag in refused for flag in refused_flags), err


class TestHelp:
    """argparse formats help strings only when asked, so a help string it
    cannot format would go unnoticed until a user asks for it."""

    def test_top_level_help_exits_0_and_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        out, err = capsys.readouterr()
        assert exit_info.value.code == EXIT_OK, err
        assert "{" + ",".join(cli._COMMAND_FLAGS) + "}" in out

    @pytest.mark.parametrize("command", list(cli._COMMAND_FLAGS))
    def test_subcommand_help_exits_0_and_lists_exactly_its_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        out, err = capsys.readouterr()
        assert exit_info.value.code == EXIT_OK, err
        # One line per option in the options section, each starting with two
        # spaces and the option (``-h, --help`` for argparse's own).
        listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", out, re.MULTILINE)
        assert len(listed) == len(set(listed))
        assert set(listed) == {*cli._COMMAND_FLAGS[command], "--out", "--csv", "--help"}


class TestOutcomeMatrix:
    """Every protocol number of a run is read from one outcome matrix per
    (basis, spectrum)."""

    UNNORMALIZED = [
        ("protocol", "--dim", "2", "--spectrum", "0.8,0.2"),
        ("bounds", "--dim", "2", "--spectrum", "0.8,0.2", "--n-states", "3"),
        ("verify", "--dim", "2", "--spectrum", "0.8,0.2"),
        ("scan", "--dim", "2", "--spectrum", "0.8,0.2"),
    ]

    @pytest.mark.parametrize("argv", UNNORMALIZED, ids=lambda argv: argv[0])
    def test_an_unnormalized_residual_is_refused(self, capsys, unnormalized_residual, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: outcome distribution for state 1 is not normalized\n"

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (("protocol", "--shots", "100"), 1),
            (("scan", "--dim", "3"), 1),
            # one per preset spectrum: uniform, product, random
            (("verify", "--dim", "2"), 3),
        ],
        ids=["protocol", "scan", "verify"],
    )
    def test_one_outcome_matrix_per_spectrum(self, capsys, monkeypatch, argv, calls):
        import entdist.protocol as protocol

        formed = []
        exact = protocol._outcome_matrix

        def counted(*args):
            formed.append(args)
            return exact(*args)

        monkeypatch.setattr(protocol, "_outcome_matrix", counted)
        code, _, err = run(capsys, *argv)
        assert code == EXIT_OK, err
        assert len(formed) == calls


class TestBasisUse:
    def test_fef_builds_no_basis(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("fef built a basis")

        monkeypatch.setattr(cli, "weyl_basis", never)
        payload = run_json(capsys, "fef", "--dim", "16")
        assert payload["fef"] == pytest.approx(1.0, abs=1e-12)

    def test_basis_validates_a_basis_file(self, capsys, tmp_path):
        path = tmp_path / "twice.json"
        identity = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        path.write_text(json.dumps({"dim": 2, "unitaries": [identity] * 4}))
        code, out, err = run(capsys, "basis", "--basis-file", str(path))
        assert code == EXIT_INPUT
        assert out == ""
        assert "basis rejected" in err


class TestSizeEstimate:
    def test_counts_dense_matrices(self):
        matrix = 16 * 3**8
        basis = 16 * 16 * 3**4
        # Either solve holds a trace row of 430 bytes every 100 iterations
        # and one at the end: 501 of them at the default 50,000.
        trace = 430 * 501
        # A complete solve holds 224 rows of d^2 floats and 32 kB of small
        # arrays; sdp adds the 16 basis-sized arrays.
        complete = 8 * 3**2 * 224 + 2**15 + trace
        assert solve_bytes(3, 9) == complete
        assert solve_bytes(3, 9, 99) == complete - 430 * 500
        # An operator-by-operator solve holds 43 operator-sized arrays per
        # operator, its state and cost among them.
        assert solve_bytes(3, 8) == 43 * 8 * matrix + trace
        assert dense_bytes("sdp", 3, 8) == 43 * 8 * matrix + trace + basis
        assert dense_bytes("sdp", 3, 9) == complete + basis
        assert dense_bytes("sdp", 3, 9, 10**6) == complete + 430 * 9500 + basis
        # sandwich adds the certificate route, which holds basis-sized arrays
        assert dense_bytes("sandwich", 3, 9) == complete + 2 * basis
        assert dense_bytes("sandwich", 3, 8) == 43 * 8 * matrix + trace + 2 * basis

    def test_limit_separates_the_sizes_that_run_from_the_ones_that_cannot(self):
        assert dense_bytes("sandwich", 5, 25) < MAX_DENSE_BYTES
        assert dense_bytes("certificate", 5, 25) < MAX_DENSE_BYTES
        assert dense_bytes("sdp", 6, 35) > MAX_DENSE_BYTES
        assert dense_bytes("sdp", 16, 256) < MAX_DENSE_BYTES
        assert dense_bytes("sdp", 63, 63**2) < MAX_DENSE_BYTES
        assert dense_bytes("sdp", 64, 64**2) > MAX_DENSE_BYTES
        assert dense_bytes("sandwich", 16, 256) < MAX_DENSE_BYTES
        assert dense_bytes("sandwich", 53, 53**2) < MAX_DENSE_BYTES
        assert dense_bytes("sandwich", 54, 54**2) > MAX_DENSE_BYTES

    def test_fef_counts_the_spectrum(self):
        assert dense_bytes("fef", 10**4, 10**8) == 400 * 10**4
        assert dense_bytes("fef", 10**7, 10**14) < MAX_DENSE_BYTES
        assert dense_bytes("fef", 10**9, 10**18) > MAX_DENSE_BYTES

    @pytest.mark.parametrize("command", ["basis", "protocol", "bounds", "certificate", "verify"])
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

    def test_certificate_at_d6(self, capsys):
        start = time.perf_counter()
        payload = run_json(capsys, "certificate", "--dim", "6", "--spectrum", "uniform")
        assert time.perf_counter() - start < 3.0
        assert payload["passed"]
        assert abs(payload["trace_value"] - payload["fef"]) <= 1e-12

    def test_sdp_complete_basis_at_d6(self, capsys):
        start = time.perf_counter()
        payload = run_json(capsys, "sdp", "--dim", "6", "--spectrum", "uniform")
        assert time.perf_counter() - start < 5.0
        assert payload["converged"]
        assert abs(payload["primal_value"] - 1.0) <= payload["accuracy"] + 1e-6

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

    def test_sandwich_agrees_where_the_stall_test_stopped_early(self, capsys):
        """Without the dual residual in its stop test the solver stalled
        3.97e-3 below F here and the three-way agreement failed."""
        payload = run_json(
            capsys, "sandwich", "--dim", "10", "--spectrum", "random", "--seed", "0"
        )
        assert payload["agreement"] is True
        assert payload["sdp"]["converged"] is True
        assert abs(payload["sdp_value"] - payload["fef_value"]) <= payload["accuracy"] + 1e-6

    def test_verify_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--dim", "2", "--spectrum", "0.8,0.2", "--seed", "1"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["passed"]
        assert all(check["passed"] for check in payload["checks"])

    def test_verify_basis_validation_can_fail(self, monkeypatch):
        # The basis is built and accepted; the check then reads a tolerance
        # that its defects do not meet.
        config = cli.resolve_config(cli.parse_args(["verify", "--dim", "3"]))
        monkeypatch.setattr(cli, "BASIS_DEFECT_TOL", 0.0)
        code, payload, _ = cli._HANDLERS["verify"](config)
        check = payload["checks"][0]
        assert check["check"] == "basis_validation"
        assert check["passed"] is False
        assert payload["passed"] is False
        assert code == EXIT_NUMERICAL

    def test_verify_preset_sweep(self, capsys):
        payload = run_json(capsys, "verify", "--dim", "2", "--seed", "1")
        assert payload["passed"]
        labels = {check["check"].split(":")[0] for check in payload["checks"]
                  if ":" in check["check"]}
        assert {"uniform", "product", "random"} <= labels


class TestTables:
    """The qubit spectrum sweep and the incomplete-set scan."""

    def test_sweep_writes_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--steps", "3", "--csv")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "p1,fef,protocol,certificate,sdp"
        assert len(lines) == 4
        assert all(line.endswith(",") for line in lines[1:])

    def test_sweep_solves_every_point(self, capsys):
        payload = run_json(capsys, "sweep", "--steps", "2", "--sdp")
        assert payload["converged"]
        assert [row["p1"] for row in payload["rows"]] == [0.5, 1.0]
        for row in payload["rows"]:
            assert row["protocol"] == pytest.approx(row["fef"], abs=1e-12)
            assert row["certificate"] == pytest.approx(row["fef"], abs=1e-12)
            assert abs(row["sdp"] - row["fef"]) < 1e-3

    def test_sweep_needs_qubits(self, capsys, tmp_path):
        from entdist.states import dump_basis_file, weyl_basis

        path = tmp_path / "weyl3.json"
        dump_basis_file(weyl_basis(3), path)
        code, out, err = run(capsys, "sweep", "--basis-file", str(path))
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: sweep walks the qubit spectrum and needs d=2, got 3\n"

    def test_scan_writes_csv(self, capsys):
        code, out, err = run(capsys, "scan", "--dim", "2", "--spectrum", "0.8,0.2", "--csv")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "n_states,lower_completion,lower_projector,upper,sdp"
        assert len(lines) == 3
        # one progress line per N on stderr
        assert [line.split()[1] for line in err.splitlines()] == ["N=3", "N=4"]

    def test_scan_rejects_wrong_length_spectrum(self, capsys):
        code, out, err = run(capsys, "scan", "--dim", "3", "--spectrum", "0.5,0.5")
        assert code == EXIT_INPUT
        assert out == ""
        assert "error:" in err

    def test_scan_solves_every_size(self, capsys):
        payload = run_json(capsys, "scan", "--dim", "2", "--spectrum", "0.8,0.2", "--sdp")
        assert payload["converged"]
        rows = payload["rows"]
        assert [row["n_states"] for row in rows] == [3, 4]
        # F = (sqrt(0.8) + sqrt(0.2))^2 / 2 = 0.9; the complete row meets it
        assert abs(rows[1]["sdp"] - 0.9) <= 1e-4 + 1e-6
        for row in rows:
            assert row["lower_completion"] <= row["sdp"] + 1e-4 + 1e-6
            assert row["sdp"] <= row["upper"] + 1e-4 + 1e-6

    def test_scan_matches_the_recorded_bracket(self, capsys):
        # n_states, lower_completion, lower_projector, upper, as tabulated to
        # 12 decimals for --dim 3 --spectrum random --seed 4
        recorded = [
            (4, "0.899551035395", "0.899551035395", "1.000000000000"),
            (5, "0.879461242474", "0.879461242474", "1.000000000000"),
            (6, "0.866068047193", "0.866068047193", "1.000000000000"),
            (7, "0.885201183309", "0.885201183309", "1.000000000000"),
            (8, "0.874438794244", "0.874438794244", "0.974326553093"),
            (9, "0.866068047193", "0.866068047193", "0.866068047193"),
        ]
        payload = run_json(
            capsys, "scan", "--dim", "3", "--spectrum", "random", "--seed", "4"
        )
        assert "converged" not in payload
        got = [
            (
                row["n_states"],
                *(f"{row[k]:.12f}" for k in ("lower_completion", "lower_projector", "upper")),
            )
            for row in payload["rows"]
        ]
        assert got == recorded
        assert all(row["sdp"] is None for row in payload["rows"])

    def test_scan_rows_are_both_strategies_bounds(self, capsys):
        # at d = 4 the two lower bounds differ for some N
        from entdist.states import weyl_basis

        payload = run_json(
            capsys, "scan", "--dim", "4", "--spectrum", "random", "--seed", "1"
        )
        basis = weyl_basis(4)
        spec = cli.parse_spectrum("random", 4, amplitudes=False, seed=1)
        differ = 0
        for row in payload["rows"]:
            completion = cli.incomplete_bounds(basis, spec, row["n_states"])
            projector = cli.incomplete_bounds(
                basis, spec, row["n_states"], strategy="projector"
            )
            assert row["lower_completion"] == completion.lower
            assert row["lower_projector"] == projector.lower
            assert row["upper"] == completion.upper
            differ += completion.lower - projector.lower > 1e-6
        assert [row["n_states"] for row in payload["rows"]] == list(range(5, 17))
        assert differ > 0

    def test_unconverged_scan_is_a_numerical_failure_with_a_report(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--dim", "2", "--spectrum", "0.8,0.2", "--sdp",
            "--max-iters", "10",
        )
        assert code == EXIT_NUMERICAL
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["max_iters"] == 10
        assert [row["n_states"] for row in payload["rows"]] == [3, 4]


def _key_paths(value, prefix: str = "") -> set[str]:
    """Dotted paths to the leaves of a JSON value; list items add ``[]``."""
    if isinstance(value, dict):
        return set().union(
            *(_key_paths(v, f"{prefix}.{k}" if prefix else k) for k, v in value.items())
        )
    if isinstance(value, list):
        return set().union({prefix + "[]"}, *(_key_paths(v, prefix + "[]") for v in value))
    return {prefix}


_FEASIBILITY_KEYS = [
    "decomposition_residuals[]", "dim", "lambda_mins[]", "n_states", "passed",
    "threshold", "tol", "trace_value", "worst_decomposition_residual",
    "worst_lambda_min",
]
_TRACE_KEYS = [
    "cone_residual", "consensus_residual", "dual_residual", "iteration",
    "objective", "primal_residual",
]
_SOLVE_KEYS = [
    "cone_residual", "converged", "iterations", "lower_bound", "primal_residual",
    "primal_value", "rounded_value", "trace[]", *(f"trace[].{k}" for k in _TRACE_KEYS),
    "upper_bound",
]
_SPECTRUM_KEYS = ["amplitudes[]", "probabilities[]"]

# Per subcommand: a fast command line, the key paths of its JSON report and
# the header row of its --csv table.
_SCHEMAS = {
    "fef": (
        ["--dim", "2", "--spectrum", "0.8,0.2"],
        ["command", "dim", *_SPECTRUM_KEYS, "fef", "negativity", "relation_defect",
         "relation_ok"],
        "dim,fef,negativity,relation_defect",
    ),
    "basis": (
        ["--dim", "2"],
        ["accepted", "command", "complete", "count", "dim", "orthogonality_defect",
         "unitarity_defect"],
        "count,dim,unitarity_defect,orthogonality_defect,complete,accepted",
    ),
    "protocol": (
        ["--dim", "2", "--shots", "10"],
        ["command", "dim", *_SPECTRUM_KEYS, "deviation_from_fef", "fef",
         "max_term_deviation", "per_state[]", "sampled_value", "sampling_error",
         "seed", "shots", "value"],
        "state,success,deviation",
    ),
    "certificate": (
        ["--dim", "2", "--n-states", "3"],
        ["command", "dim", *(f"feasibility.{k}" for k in _FEASIBILITY_KEYS), "fef",
         "n_states", "passed", "scale", "trace_value",
         *(f"upsilon.{k}" for k in
           ["complement_defect", "dim", "min_eigenvalue", "passed", "spectrum_defect"])],
        "k,lambda_min,decomposition_residual",
    ),
    "sdp": (
        ["--dim", "2"],
        ["accuracy", "command", "dim", "max_iters", "n_states", *_SOLVE_KEYS],
        "iteration,objective,primal_residual,cone_residual,dual_residual,consensus_residual",
    ),
    "bounds": (
        ["--dim", "2", "--n-states", "3"],
        ["assignments[]", "command", "dim", "fef_value", "in_range", "lower",
         "n_states", "overlaps[]", "strategy", "upper"],
        "completion_index,assigned_state,overlap",
    ),
    "sandwich": (
        ["--dim", "2"],
        ["accuracy", "agreement", "command", "dim",
         *(f"feasibility.{k}" for k in _FEASIBILITY_KEYS), "fef_value", "lower",
         "n_states", *(f"sdp.{k}" for k in _SOLVE_KEYS), "sdp_value", "upper",
         "upper_unclipped"],
        "dim,n_states,lower,sdp,upper,fef,agreement",
    ),
    "verify": (
        ["--dim", "2", "--spectrum", "uniform"],
        ["checks[]", "checks[].check", "checks[].detail", "checks[].passed",
         "command", "dim", "passed", "seed"],
        "check,passed,detail",
    ),
    "sweep": (
        ["--steps", "2", "--sdp"],
        ["accuracy", "command", "converged", "dim", "max_iters", "rows[]",
         *(f"rows[].{k}" for k in ["certificate", "fef", "p1", "protocol", "sdp"]),
         "steps"],
        "p1,fef,protocol,certificate,sdp",
    ),
    "scan": (
        ["--dim", "2"],
        ["command", "dim", *_SPECTRUM_KEYS, "rows[]",
         *(f"rows[].{k}" for k in
           ["lower_completion", "lower_projector", "n_states", "sdp", "upper"])],
        "n_states,lower_completion,lower_projector,upper,sdp",
    ),
}


class TestReportSchema:
    """Every subcommand's report keys and CSV header, pinned."""

    def test_every_subcommand_is_pinned(self):
        assert sorted(_SCHEMAS) == sorted(cli._HANDLERS)

    @pytest.mark.parametrize("command", sorted(_SCHEMAS))
    def test_json_key_paths(self, capsys, command):
        argv, keys, _ = _SCHEMAS[command]
        payload = run_json(capsys, command, *argv)
        assert sorted(_key_paths(payload)) == sorted(keys)

    @pytest.mark.parametrize("command", sorted(_SCHEMAS))
    def test_csv_header(self, capsys, command):
        argv, _, header = _SCHEMAS[command]
        code, out, err = run(capsys, command, *argv, "--csv")
        assert code == EXIT_OK, err
        assert out.splitlines()[0] == header


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

        from entdist.states import weyl_basis
        from oracles import load_basis_file

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


def _mostly(valid: list, malformed):
    """Three draws in four from the valid values, the fourth from malformed."""
    return st.integers(0, 3).flatmap(
        lambda k: malformed if k == 0 else st.sampled_from(valid)
    )


def _basis_files():
    from entdist.states import weyl_basis

    weyl = [
        [[z.real, z.imag] for z in u.reshape(-1)] for u in weyl_basis(2).unitaries
    ]
    identity = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=12,
    )
    malformed = st.one_of(
        json_values,
        st.fixed_dictionaries({"dim": json_values, "unitaries": json_values}),
        st.fixed_dictionaries(
            {
                "dim": st.sampled_from([2.0, "2", 3, -1, 10**9]),
                "unitaries": st.sampled_from([weyl, weyl[:3], [identity] * 4, [weyl[0][:3]]]),
            }
        ),
    )
    return _mostly([{"dim": 2, "unitaries": weyl}], malformed)


def _floats(valid: list[str]):
    return _mostly(valid, st.floats().map(repr) | st.text(max_size=4))


# A strategy for every flag that takes a value.
_VALUES = {
    "--dim": _mostly(["2"], st.sampled_from(["0", "1", "-2", "100", "2.5", "x", ""])),
    "--spectrum": _mostly(
        ["uniform", "product", "random", "0.8,0.2", "0.7,0.3"],
        st.sampled_from(["0.8,0.3", "nan,0.5", "inf,0", "-0.2,1.2", "0.5", "a,b", ","])
        | st.text(max_size=8),
    ),
    "--n-states": _mostly(["1", "3", "4"], st.sampled_from(["-1", "0", "5", "x", "1e3"])),
    "--tol": _floats(["1e-9", "1e-6"]),
    "--accuracy": _floats(["1e-4", "1e-2"]),
    "--strategy": _mostly(["completion", "projector"], st.just("other")),
    "--seed": _mostly(["0", "7"], st.sampled_from(["-1", "x"])),
    "--basis-file": _basis_files(),
    "--max-iters": _mostly(["1", "5", "20"], st.sampled_from(["0", "-1", "x"])),
    "--shots": _mostly(["0", "10"], st.sampled_from(["-5", "x"])),
    "--steps": _mostly(["2", "3"], st.sampled_from(["1", "0", "-3", "x"])),
    # a name is placed in a fresh directory; an empty path stays empty
    "--dump": _mostly(["dumped.json"], st.just("")),
    "--out": _mostly(["report.out"], st.just("")),
}


@st.composite
def _command_lines(draw):
    """A command and flags it offers; --max-iters stays at most 20 and d at 2."""
    command = draw(st.sampled_from(sorted(cli._COMMAND_FLAGS)))
    offered = (*cli._COMMAND_FLAGS[command], "--out", "--csv")
    switches = [flag for flag in offered if cli._FLAGS[flag].get("action") == "store_true"]
    values = {flag: _VALUES[flag] for flag in offered if flag not in switches}
    required = {"--max-iters": values.pop("--max-iters")} if "--max-iters" in values else {}
    flags = draw(st.fixed_dictionaries(required, optional=values))
    return command, flags, sorted(draw(st.sets(st.sampled_from(switches))))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(command_line=_command_lines())
def test_fuzzed_arguments_exit_cleanly(tmp_path_factory, command_line):
    """Any argument mix exits 0, 1 or 2; 2 prints nothing; JSON stays JSON."""
    command, flags, switches = command_line
    argv = [command, *switches]
    for flag, value in flags.items():
        if flag == "--basis-file":
            path = tmp_path_factory.mktemp("fuzz") / "basis.json"
            path.write_text(json.dumps(value))
            value = path
        elif flag in ("--dump", "--out") and value:
            value = tmp_path_factory.mktemp("fuzz") / value
        argv.append(f"{flag}={value}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (EXIT_OK, EXIT_NUMERICAL, EXIT_INPUT), argv
    assert "Traceback" not in err.getvalue()
    if "" in (flags.get("--dump"), flags.get("--out")):
        assert code == EXIT_INPUT, argv
    if code == EXIT_INPUT:
        assert out.getvalue() == "", argv
    elif out.getvalue() and "--csv" not in switches:
        json.loads(out.getvalue())


# --- The report writer and the one-pass parser against their oracles ---

README = Path(__file__).resolve().parents[1] / "README.md"
# Every `entdist ...` line of the README, without the program name and the
# trailing comment.
_README_EXAMPLES = [
    shlex.split(line.split("#", 1)[0])[1:]
    for line in README.read_text(encoding="utf-8").splitlines()
    if line.startswith("entdist ")
]


def _comma(p) -> str:
    return ",".join(repr(float(x)) for x in p)


def _workload_argvs(basis_file) -> list[list[str]]:
    """One command line of each shape the benchmark's workloads run
    (perfbench/run.py): squared weights written with every digit, the
    solver's accuracy passed explicitly."""
    qubit = ["--dim", "2", "--spectrum", _comma([0.7290648102466375, 0.2709351897533625])]
    solver = ["--accuracy", "0.0001"]
    return [
        ["sandwich", "--dim", "3", "--spectrum", _comma([0.5534, 0.2953, 0.1513]), *solver],
        ["certificate", "--dim", "5", "--spectrum", _comma([0.31, 0.07, 0.22, 0.15, 0.25])],
        ["fef", *qubit],
        ["protocol", *qubit],
        ["certificate", *qubit],
        ["sdp", *qubit, *solver],
        ["sandwich", *qubit, *solver],
        ["bounds", *qubit, "--n-states", "3", "--strategy", "completion"],
        ["bounds", *qubit, "--n-states", "3", "--strategy", "projector"],
        ["protocol", *qubit, "--shots", "2000", "--seed", "606842135"],
        ["sandwich", *qubit, "--basis-file", str(basis_file), *solver],
        ["verify", "--dim", "2", "--spectrum", "0.5,0.5", "--seed", "21371133"],
    ]


@pytest.fixture(scope="module")
def basis_file(tmp_path_factory):
    """The d = 2 Weyl basis conjugated by a Haar-random unitary."""
    from oracles import conjugated_basis, haar_random_unitary

    from entdist.states import dump_basis_file, weyl_basis

    path = tmp_path_factory.mktemp("basis") / "haar2.json"
    rng = np.random.default_rng(5)
    dump_basis_file(conjugated_basis(weyl_basis(2), haar_random_unitary(2, rng)), path)
    return path


def _oracle(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False, default=cli._json_value)


def _outcome(write, payload):
    """The text ``write`` makes of ``payload``, or the ValueError it raises."""
    try:
        return write(payload)
    except ValueError as exc:
        return f"ValueError: {exc}"


@dataclasses.dataclass(frozen=True)
class _Report:
    value: object
    values: tuple
    kept: object = dataclasses.field(default=None, repr=False)


# Characters that JSON escapes or that ensure_ascii writes as \u escapes.
_TRICKY = st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "☃", "😀"])
_TEXT = st.text(st.characters() | _TRICKY, max_size=6)
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e308, -1e308, 0.1]
)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf]).flatmap(
    lambda x: st.sampled_from([x, np.float64(x), np.float32(x)])
)


def _payloads(non_finite: bool):
    """Nested report-like values: what the writer must format as json.dumps
    does, with or without NaN and infinities among the leaves."""
    floats = _FINITE | _NON_FINITE if non_finite else _FINITE
    leaves = st.one_of(
        _TEXT,
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(2**63, 2**80) | st.integers(-(2**80), -(2**63)),
        floats,
        floats.map(np.float64),
        st.floats(width=32, allow_nan=non_finite, allow_infinity=non_finite).map(np.float32),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.booleans().map(np.bool_),
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=3), elements=floats),
        hnp.arrays(np.int64, st.integers(0, 3)),
        st.lists(floats, max_size=5),
        st.just([]),
        st.just({}),
    )
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(_TEXT, inner, max_size=4)
        | st.builds(_Report, inner, st.lists(inner, max_size=2).map(tuple), inner),
        max_leaves=12,
    )


class TestJsonWriter:
    """``_json_text`` against the json.dumps call it replaces."""

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(payload=_payloads(non_finite=False))
    def test_matches_json_dumps(self, payload):
        assert cli._json_text(payload, "\n") == _oracle(payload)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(payload=_payloads(non_finite=True), bad=_NON_FINITE)
    def test_refuses_a_non_finite_number_as_json_dumps_does(self, payload, bad):
        # The first non-finite number in key order is named, wherever it is.
        payload = [payload, {"value": bad}]
        with pytest.raises(ValueError, match="^Out of range float values"):
            _oracle(payload)
        assert _outcome(lambda p: cli._json_text(p, "\n"), payload) == _outcome(_oracle, payload)

    @pytest.mark.parametrize("argv", _README_EXAMPLES, ids=" ".join)
    def test_every_readme_report(self, capsys, argv):
        if argv[0] == "scan" and "--sdp" in argv:
            # Its subset solves take about 30 s uncapped; a cap changes the
            # numbers, not the report's shape.
            argv = [*argv, "--max-iters", "25"]
        self._check(capsys, argv)

    def test_every_workload_report(self, capsys, basis_file):
        for argv in _workload_argvs(basis_file):
            self._check(capsys, argv)

    @staticmethod
    def _check(capsys, argv):
        """The payload's text is the oracle's, and a JSON run prints it."""
        config = cli.resolve_config(cli.parse_args(argv))
        _, payload, _ = cli._HANDLERS[config.command](config)
        expected = _oracle(payload) + "\n"
        assert cli._json_text(payload, "\n") + "\n" == expected
        if not config.csv:
            capsys.readouterr()
            main(argv)
            assert capsys.readouterr().out == expected


def _full_parse(capsys, argv):
    """(namespace or exit code, stdout, stderr) of the full parser."""
    try:
        result = vars(cli.build_parser().parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    return (result, *capsys.readouterr())


class TestParseOnce:
    """``parse_args`` against ``build_parser().parse_args``."""

    @pytest.mark.parametrize("argv", _README_EXAMPLES, ids=" ".join)
    def test_readme_examples(self, capsys, monkeypatch, argv):
        self._check_one_pass(capsys, monkeypatch, argv)

    def test_workload_argvs(self, capsys, monkeypatch, basis_file):
        for argv in _workload_argvs(basis_file):
            self._check_one_pass(capsys, monkeypatch, argv)

    @pytest.mark.parametrize("command", list(cli._COMMAND_FLAGS))
    def test_each_subcommand_without_flags(self, capsys, monkeypatch, command):
        self._check_one_pass(capsys, monkeypatch, [command])

    @staticmethod
    def _check_one_pass(capsys, monkeypatch, argv):
        expected = _full_parse(capsys, argv)

        def refuse(*args, **kwargs):
            raise AssertionError("the full parser ran")

        # The namespace comes from the subcommand's parser alone.
        with monkeypatch.context() as patch:
            patch.setattr(cli.build_parser(), "parse_args", refuse)
            args = cli.parse_args(argv)
        assert (vars(args), *capsys.readouterr()) == expected
        assert list(vars(args)) == list(expected[0])

    @pytest.mark.parametrize(
        "argv",
        [[], ["--help"], ["bogus"], ["fef", "-h"], ["fef", "--dim", "x"], ["fef", "--accuracy", "1"]],
        ids=" ".join,
    )
    def test_help_usage_and_errors(self, capsys, argv):
        code, out, err = _full_parse(capsys, argv)
        assert code in (EXIT_OK, EXIT_INPUT) and out + err
        with pytest.raises(SystemExit) as exit_info:
            cli.parse_args(argv)
        assert (exit_info.value.code, *capsys.readouterr()) == (code, out, err)


# Option values of every kind: valid for some action, of the wrong type,
# out of its choices, negative, "-", empty, flag-like and non-finite.
_WILD_VALUES = st.one_of(
    st.integers(-12, 40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(
        ["", "-", "--", "-1", "-0.5", "-h", "--help", "--dim", "--bogus", "-x",
         "x", "1.5", " 3", "3 ", "1_0", "completion", "projector", "uniform",
         "random", "0.8,0.2", "report.json"]
    ),
)


def _valid_value(flag):
    """Values the flag's action accepts: its type's, or one of its choices."""
    options = cli._FLAGS[flag]
    if "choices" in options:
        return st.sampled_from(options["choices"])
    if options.get("type") is int:
        return st.integers(0, 40).map(str)
    if options.get("type") is float:
        return st.floats(1e-12, 1.0).map(repr)
    return st.sampled_from(["0.8,0.2", "uniform", "random", "basis.json", "x"])


def _flag_and_value(flag, value):
    """The flag and its value as an argv holds them; a flag takes none."""
    return [flag] if cli._FLAGS[flag].get("action") == "store_true" else [flag, value]


@st.composite
def _parser_argvs(draw):
    """An argv of a subcommand's flags with accepted values, into which up to
    two other arguments are put: a flag with a value of any kind, as
    ``--flag=value`` or abbreviated, a flag with no value, a flag the
    subcommand is not offered, a stray value, or ``-h``."""
    command = draw(
        st.sampled_from(list(cli._COMMAND_FLAGS))
        | st.sampled_from(["bogus", "-h", "--help", "--dim", "fe"])
    )
    offered = [*cli._COMMAND_FLAGS.get(command, ()), "--out", "--csv"]
    items = []
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(offered))  # repeats too
        items.append(_flag_and_value(flag, draw(_valid_value(flag))))
    for _ in range(draw(st.integers(0, 2))):
        flag = draw(st.sampled_from(offered) | st.sampled_from(list(cli._FLAGS)))
        value = draw(_valid_value(flag) | _WILD_VALUES)
        form = draw(
            st.sampled_from(["exact", "with value", "equals", "abbreviated", "bare", "stray", "help"])
        )
        item = {
            "exact": _flag_and_value(flag, value),
            "with value": [flag, value],
            "equals": [f"{flag}={value}"],
            "abbreviated": [flag[: draw(st.integers(3, len(flag) - 1))], value],
            "bare": [flag],
            "stray": [value],
            "help": [draw(st.sampled_from(["-h", "--help"]))],
        }[form]
        items.insert(draw(st.integers(0, len(items))), item)
    head = [command] if draw(st.integers(0, 9)) else []
    return head + [arg for item in items for arg in item]


def _parse_outcome(parse, argv):
    """(namespace items or exit code, stdout, stderr) of one parse.

    A value is held by its type and repr, so that two NaNs compare equal.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = [(k, type(v), repr(v)) for k, v in vars(parse(argv)).items()]
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestExactMatchParity:
    """``parse_args``, by exact match or by the full parser, against the
    full parser on drawn command lines: the same namespace (keys, order,
    values), or the same exit code, stdout and stderr."""

    @settings(max_examples=1500, deadline=None, database=None, derandomize=True)
    @given(argv=_parser_argvs())
    def test_matches_the_full_parser(self, argv):
        expected = _parse_outcome(cli.build_parser().parse_args, list(argv))
        assert _parse_outcome(cli.parse_args, argv) == expected

    @settings(max_examples=600, deadline=None, database=None, derandomize=True)
    @given(
        option=st.sampled_from(
            [(c, f) for c, flags in cli._COMMAND_FLAGS.items() for f in (*flags, "--out", "--csv")]
        ),
        value=_WILD_VALUES,
    )
    def test_one_flag_with_a_value_of_any_kind(self, option, value):
        argv = [*option, value]
        assert _parse_outcome(cli.parse_args, argv) == _parse_outcome(
            cli.build_parser().parse_args, argv
        )

    def test_well_formed_lines_match_exactly(self):
        assert cli._exact_match(["sdp", "--dim", "3", "--accuracy", "1e-05", "--csv"]) is not None
        for argv in (
            ["fef", "--dim=3"], ["fef", "--di", "3"], ["fef", "--seed", "-1"],
            ["fef", "--dim"], ["fef", "--dim", "x"], ["bounds", "--strategy", "x"],
            ["fef", "-h"], ["fef", "--shots", "3"], ["fef", "--csv", "3"], ["bogus"], [],
        ):
            assert cli._exact_match(argv) is None, argv
