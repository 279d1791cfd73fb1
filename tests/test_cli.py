import dataclasses
import json

import pytest

from expframes import verify
from expframes.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_canonical_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--spectrum", '{"m":4,"cells":[0]}', "--d", "1", "--mode", "sampling"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == 0.25 and payload["upper"] == 0.25
        assert payload["pass"] is True

    def test_riesz_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--spectrum", '{"m":8,"cells":[0,1,2,3]}', "--d", "0.5", "--mode", "riesz"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "riesz"
        assert payload["lower"] >= payload["constant_check"]

    def test_bessel_mode_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "--spectrum", '{"m":4,"cells":[0]}', "--mode", "bessel", "--k", "2",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# expframes-csv v1")
        assert lines[1].split(",")[0] == "m"
        assert len(lines) == 3

    def test_k_only_with_bessel(self, capsys):
        code, _, err = run_cli(
            capsys, "construct", "--spectrum", '{"m":4,"cells":[0]}', "--d", "1", "--k", "2"
        )
        assert code == 2 and "input error" in err

    def test_interval_spectrum_needs_m(self, capsys):
        code, _, err = run_cli(
            capsys, "construct", "--spectrum", '{"intervals":[[0.0,3.141592653589793]]}', "--d", "1"
        )
        assert code == 2
        code, out, _ = run_cli(
            capsys, "construct", "--spectrum", '{"intervals":[[0.0,3.141592653589793]]}', "--d", "1", "--m", "4"
        )
        assert code == 0
        assert json.loads(out)["n"] == 2

    def test_bad_json_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--spectrum", "{oops", "--d", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "spectrum", ['{"m": 4, "cells": "013"}', '{"intervals": [[false, true]]}']
    )
    def test_malformed_descriptor_is_input_error(self, capsys, spectrum):
        code, out, err = run_cli(capsys, "construct", "--spectrum", spectrum, "--d", "1", "--m", "4")
        assert code == 2 and out == "" and "input error" in err

    def test_riesz_d_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys, "construct", "--spectrum", '{"m":8,"cells":[0,1]}', "--d", "1.5", "--mode", "riesz"
        )
        assert code == 2


class TestVerify:
    def test_descriptive_landau_violation(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--spectrum", '{"m":4,"cells":[0,1]}', "--residues", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == 0.0
        assert payload["landau_violation"] is True

    def test_tight_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--spectrum", '{"m":4,"cells":[0,1]}', "--residues", "0,2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == 0.5 and payload["tight"] is True


class TestDuality:
    def test_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "duality", "--spectrum", '{"m":4,"cells":[0,1]}', "--residues", "0,2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["factor_two_pass"] and payload["exact_identity_pass"]

    def test_vacuous(self, capsys):
        code, out, _ = run_cli(
            capsys, "duality", "--spectrum", '{"m":4,"cells":[0,1]}', "--residues", "0,1,2,3"
        )
        assert code == 0
        assert json.loads(out)["vacuous"] is True


class TestExhaust:
    def test_csv_stages(self, capsys):
        code, out, _ = run_cli(
            capsys, "exhaust", "--spectrum", '{"intervals":[[0.0,3.141592653589793]]}',
            "--d", "1", "--schedule", "2,4,8",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# expframes-csv v1")
        assert len(lines) == 5
        for line in lines[2:]:
            assert line.endswith("true")

    def test_grid_spectrum_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "exhaust", "--spectrum", '{"m":4,"cells":[0,1]}',
            "--d", "1", "--schedule", "4,8", "--format", "json",
        )
        assert code == 0
        stages = json.loads(out)
        assert [st["stage_m"] for st in stages] == [4, 8]


class TestSweep:
    ARGS = (
        "sweep", "--m-list", "16", "--s-list", "1/4,1/8", "--d-list", "0.5,1",
        "--seed", "3",
    )

    def test_rows_pass(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2 + 4
        header = lines[1].split(",")
        assert "C_target" in header and "s_squared" in header

    def test_byte_identical_rerun(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, *self.ARGS)
        assert out1 == out2

    def test_jobs_do_not_change_output(self, capsys):
        _, seq, _ = run_cli(capsys, *self.ARGS)
        _, par, _ = run_cli(capsys, *self.ARGS, "--jobs", "3")
        assert seq == par

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert all(row["pass"] for row in rows)

    def test_m64_grid_rows_meet_targets(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--m-list", "64", "--s-list", "1/16,1/8",
            "--d-list", "0.5,1,3", "--seed", "11", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 6
        for row in rows:
            assert row["lower"] >= row["C_target"]
            assert row["s_squared"] == (row["n"] / row["m"]) ** 2


class TestOneCertification:
    """Each construct and each sweep row calls a verify bound exactly once."""

    @pytest.fixture
    def bound_calls(self, monkeypatch):
        calls = []
        for name in ("sampling_bounds", "riesz_bounds"):
            original = getattr(verify, name)

            def spy(*args, _name=name, _fn=original, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(verify, name, spy)
        return calls

    @pytest.mark.parametrize(
        "mode,extra,expected",
        [
            ("sampling", ("--d", "1"), "sampling_bounds"),
            ("bessel", (), "sampling_bounds"),
            ("riesz", ("--d", "0.5"), "riesz_bounds"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_construct(self, capsys, bound_calls, mode, extra, expected, fmt):
        code, _, _ = run_cli(
            capsys, "construct", "--spectrum", '{"m":16,"cells":[0,3,5,9]}', "--mode", mode,
            "--format", fmt, *extra,
        )
        assert code == 0
        assert bound_calls == [expected]

    def test_sweep_rows(self, capsys, bound_calls):
        code, out, _ = run_cli(capsys, *TestSweep.ARGS, "--format", "json")
        assert code == 0
        assert bound_calls == ["sampling_bounds"] * len(json.loads(out))

    @pytest.mark.parametrize(
        "mode,name,d", [("sampling", "sampling_bounds", "1"), ("riesz", "riesz_bounds", "0.5")]
    )
    def test_bound_below_target_exits_1(self, capsys, monkeypatch, mode, name, d):
        original = getattr(verify, name)
        monkeypatch.setattr(
            verify, name, lambda *args: dataclasses.replace(original(*args), lower=0.0)
        )
        code, out, err = run_cli(
            capsys, "construct", "--spectrum", '{"m":16,"cells":[0,3,5,9]}', "--mode", mode,
            "--d", d,
        )
        assert code == 1 and out == ""
        assert err.startswith("certificate failure:")


class TestHugeD:
    """d so large that ceil((1+d)n) overflows is refused on the step cap."""

    @pytest.mark.parametrize("d", ["inf", "1e308"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "--spectrum", '{"m":8,"cells":[0,1]}', "--d"),
            ("exhaust", "--spectrum", '{"m":8,"cells":[0,1]}', "--schedule", "8", "--d"),
            ("sweep", "--m-list", "8", "--s-list", "1/4", "--d-list"),
        ],
        ids=["construct", "exhaust", "sweep"],
    )
    def test_exits_2(self, capsys, argv, d):
        code, out, err = run_cli(capsys, *argv, d)
        assert code == 2 and out == ""
        assert "input error" in err and "exceeds the 10*m cap" in err
