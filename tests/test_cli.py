import argparse
import ctypes
import dataclasses
import json
import math
import multiprocessing
import os
import shlex
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import expframes
from expframes import cli, verify
from expframes.cli import _build_parser, main
from expframes.errors import CertificateFailed
from expframes.selection import lower_certificate_constant
from test_linalg import openblas_loading


class _ForkLog:
    """threading.active_count() at each fork while armed.

    A fork hook cannot be unregistered, so it is registered once and does
    nothing while counts is None.
    """

    def __init__(self):
        self.counts = None
        os.register_at_fork(before=self._before)

    def _before(self):
        if self.counts is not None:
            self.counts.append(threading.active_count())


FORK_LOG = _ForkLog()


@pytest.fixture
def forks():
    FORK_LOG.counts = []
    try:
        yield FORK_LOG.counts
    finally:
        FORK_LOG.counts = None


def _openblas(action, *args):
    """Call {action}_num_threads of numpy's bundled OpenBLAS; None without it."""
    for path in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        lib = ctypes.CDLL(str(path))
        for name in (f"scipy_openblas_{action}_num_threads64_", f"openblas_{action}_num_threads64_"):
            if hasattr(lib, name):
                return getattr(lib, name)(*args)
    return None


# A child interpreter that imports this checkout's package.
_ENV = {**os.environ, "PYTHONPATH": str(Path(expframes.__file__).resolve().parents[1])}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _build_threads(monkeypatch):
    """The thread of every in-process build_sampling call, in call order."""
    threads = []
    build = cli.cons.build_sampling

    def spy(grid, d):
        threads.append(threading.get_ident())
        return build(grid, d)

    monkeypatch.setattr(cli.cons, "build_sampling", spy)
    return threads


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

    def test_d_not_with_bessel(self, capsys):
        code, out, err = run_cli(
            capsys, "construct", "--spectrum", '{"m":8,"cells":[1,3]}', "--mode", "bessel",
            "--d", "0.5",
        )
        assert code == 2 and out == "" and "input error" in err

    @pytest.mark.parametrize(
        "mode,extra,bounds",
        [
            ("sampling", ("--d", "1"), verify.sampling_bounds),
            ("bessel", (), verify.sampling_bounds),
            ("riesz", ("--d", "0.5"), verify.riesz_bounds),
        ],
    )
    def test_json_keys_and_fresh_bounds(self, capsys, mode, extra, bounds):
        code, out, _ = run_cli(
            capsys, "construct", "--spectrum", '{"m":16,"cells":[0,3,5,9]}', "--mode", mode, *extra
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "m", "n", "cells", "residues", "kind", "param", "lower", "upper", "density",
            "landau_floor", "constant_check", "pass",
        ]
        assert payload["kind"] == mode and payload["pass"] is True
        grid = expframes.GridSpectrum(16, (0, 3, 5, 9))
        with cli._one_blas_thread():
            fresh = bounds(grid, expframes.SamplingSet(16, payload["residues"]))
        assert payload["lower"] == fresh.lower and payload["upper"] == fresh.upper
        assert payload["density"] == str(fresh.density)
        assert payload["landau_floor"] == str(fresh.landau_floor)

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

    def test_step_count_matches_size_cap(self, capsys):
        # (1+d)*11 evaluates to 25.000000000000004: the greedy must take the
        # 25 steps of the size cap, not a 26th that could add a residue
        code, out, err = run_cli(
            capsys, "construct", "--spectrum", '{"m":88,"cells":[1,4,24,38,42,52,63,65,83,84,87]}',
            "--d", "1.272727272727273",
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert len(payload["residues"]) <= 25 and payload["pass"] is True

    @pytest.mark.parametrize(
        "spectrum,d", [('{"m":4,"cells":[0,1,2,3]}', "10"), ('{"m":1,"cells":[0]}', "9.75")]
    )
    def test_full_spectrum_above_the_step_cap(self, capsys, spectrum, d):
        # n = m takes Z_m without a greedy step, so the 10*m step cap does
        # not apply: ceil((1+d)n) = 44 > 40 and 11 > 10 here
        code, out, err = run_cli(capsys, "construct", "--spectrum", spectrum, "--d", d)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["residues"] == payload["cells"] and payload["pass"] is True
        assert math.isclose(payload["lower"], 1.0) and math.isclose(payload["upper"], 1.0)

    def test_riesz_d_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys, "construct", "--spectrum", '{"m":8,"cells":[0,1]}', "--d", "1.5", "--mode", "riesz"
        )
        assert code == 2


    def test_grid_spectrum_conflicting_m_is_input_error(self, capsys):
        grid = '{"m":16,"cells":[0,3]}'
        _, plain, _ = run_cli(capsys, "construct", "--spectrum", grid, "--d", "1")
        code, out, err = run_cli(capsys, "construct", "--spectrum", grid, "--m", "16", "--d", "1")
        assert code == 0 and out == plain
        code, out, err = run_cli(capsys, "construct", "--spectrum", grid, "--m", "32", "--d", "1")
        assert code == 2 and out == "" and "conflicts" in err


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


    def test_grid_spectrum_conflicting_m_is_input_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--spectrum", '{"m":16,"cells":[0,3]}', "--residues", "0,1,2",
            "--m", "64",
        )
        assert code == 2 and out == "" and "conflicts" in err


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

    def test_format_is_unrecognized(self, capsys):
        # duality prints JSON only, so it declares no --format to ignore
        with pytest.raises(SystemExit) as exc:
            main(["duality", "--spectrum", '{"m":4,"cells":[0,1]}', "--residues", "0,2",
                  "--format", "csv"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --format csv" in captured.err


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

    def test_d_not_with_bessel(self, capsys):
        code, out, err = run_cli(
            capsys, "exhaust", "--spectrum", '{"m":8,"cells":[0,1]}', "--schedule", "8",
            "--mode", "bessel", "--d", "0.5",
        )
        assert code == 2 and out == "" and "input error" in err

    def test_m_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "exhaust", "--spectrum", '{"intervals":[[0.3,0.9],[2.0,2.5]]}', "--m", "999",
                "--schedule", "16,32",
            ])
        assert exc.value.code == 2 and capsys.readouterr().out == ""


class TestBlasThreads:
    """Every command runs numpy's bundled OpenBLAS on one thread."""

    def test_exhaust_bytes_do_not_depend_on_blas_threads(self):
        # Before the pin covered every command, this stage printed lower
        # ...59675 with OPENBLAS_NUM_THREADS=1 and ...59691 with 2.
        argv = [
            sys.executable, "-m", "expframes.cli", "exhaust",
            "--spectrum", '{"intervals":[[0.3,0.9],[2.0,2.5]]}', "--d", "1", "--schedule", "512",
        ]
        outs = [
            subprocess.run(
                argv, env={**_ENV, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, timeout=300
            )
            for threads in ("1", "2")
        ]
        assert [done.returncode for done in outs] == [0, 0]
        assert outs[0].stdout == outs[1].stdout
        assert b"\n512,88,158," in outs[0].stdout

    @pytest.mark.parametrize("fails", [False, True])
    def test_command_runs_on_one_thread_and_restores(self, capsys, monkeypatch, fails):
        threads = _openblas("get")
        if threads is None:
            pytest.skip("numpy carries no bundled OpenBLAS")
        seen = []
        build = cli.cons.build_sampling

        def spy(grid, d):
            seen.append(_openblas("get"))
            if fails:
                raise CertificateFailed("forced")
            return build(grid, d)

        monkeypatch.setattr(cli.cons, "build_sampling", spy)
        _openblas("set", 2)  # a caller's own setting, restored after the command
        try:
            code, _, _ = run_cli(
                capsys, "construct", "--spectrum", '{"m":32,"cells":[0,1,2,3,5,8,13,21]}', "--d", "1"
            )
            assert code == (1 if fails else 0)
            assert _openblas("get") == 2
        finally:
            _openblas("set", threads)
        assert seen == [1]

    SPAN = '{"intervals":[[0.3,0.9],[2.0,2.5]]}'
    # every command, each engine above LAED_MIN_N and the Riesz screen included
    WITHOUT_OPENBLAS = (
        ("construct", "--spectrum", SPAN, "--m", "256", "--d", "1"),
        ("construct", "--spectrum", SPAN, "--m", "256", "--mode", "bessel"),
        ("construct", "--spectrum", SPAN, "--m", "256", "--mode", "riesz", "--d", "0.25"),
        ("verify", "--spectrum", '{"m":16,"cells":[0,1,2,3]}', "--residues", "0,4,8,12"),
        ("duality", "--spectrum", '{"m":4,"cells":[0,1]}', "--residues", "0,2"),
        ("exhaust", "--spectrum", SPAN, "--schedule", "64,128"),
    )

    def test_commands_run_without_openblas(self, capsys, forks):
        # the lookup finds no library: the engines take their numpy routes
        # and nothing pins, or restores, the real library's threads
        threads = _openblas("get")
        if threads is None:
            pytest.skip("numpy carries no bundled OpenBLAS")
        _openblas("set", 2)
        try:
            with openblas_loading(None):
                for argv in (*self.WITHOUT_OPENBLAS, (*TestSweep.ARGS, "--jobs", "2")):
                    code, out, err = run_cli(capsys, *argv)
                    assert (code, err) == (0, ""), argv
                    assert out and _openblas("get") == 2, argv
            assert len(forks) == 2  # the sweep's workers started without a pin
        finally:
            _openblas("set", threads)


class TestNoAbbreviations:
    """An option a subcommand lacks never passes as a prefix of one it has."""

    GRID = '{"m":16,"cells":[0,3]}'

    @pytest.mark.parametrize(
        "argv",
        [
            ("exhaust", "--spectrum", GRID, "--schedule", "16", "--m", "sampling"),
            ("sweep", "--m", "64", "--s-list", "1/4", "--d-list", "1"),
            ("construct", "--spectrum", GRID, "--d", "1", "--form", "json"),
        ],
        ids=["exhaust-m", "sweep-m", "construct-form"],
    )
    def test_prefix_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2 and capsys.readouterr().out == ""


class TestListArguments:
    """Every comma-separated option fails the same way on a bad token."""

    @pytest.mark.parametrize(
        "argv,what",
        [
            (("sweep", "--m-list", "x", "--s-list", "1/4", "--d-list", "1"), "m"),
            (("sweep", "--m-list", "16", "--s-list", "x", "--d-list", "1"), "fraction"),
            (("sweep", "--m-list", "16", "--s-list", "1/4", "--d-list", "x"), "d"),
            (("exhaust", "--spectrum", '{"m":8,"cells":[0,1]}', "--schedule", "x"), "schedule"),
            (("verify", "--spectrum", '{"m":8,"cells":[0,1]}', "--residues", "x"), "residue"),
            (("duality", "--spectrum", '{"m":8,"cells":[0,1]}', "--residues", "x"), "residue"),
        ],
    )
    def test_bad_list_names_the_list(self, capsys, argv, what):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"input error: bad {what} list 'x'\n"


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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_input_error(self, capsys, jobs):
        code, out, err = run_cli(capsys, *self.ARGS, "--jobs", jobs)
        assert code == 2 and out == "" and "--jobs must be at least 1" in err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--s-list", "2", "|S| fraction 2 outside (0, 1]"),
            ("--s-list", "1/4,0", "|S| fraction 0 outside (0, 1]"),
            ("--s-list", "3/2", "|S| fraction 3/2 outside (0, 1]"),
            ("--s-list", "1/0", "bad fraction list '1/0'"),
            ("--m-list", "16,0", "m must be at least 1, got 0"),
            ("--m-list", "-16", "m must be at least 1, got -16"),
            ("--m-list", "16,2", "|S| fraction 1/4 empty at m=2"),
            ("--seed", "-1", "--seed must be non-negative, got -1"),
            ("--d-list", "1,-1", "d must be positive, got -1.0"),
            ("--d-list", "nan", "d must be positive, got nan"),
            ("--d-list", "0.5,0", "d must be positive, got 0.0"),
        ],
    )
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_grid_is_input_error(self, capsys, forks, flag, value, message, jobs):
        argv = list(self.ARGS)
        argv[argv.index(flag) + 1] = value
        code, out, err = run_cli(capsys, *argv, "--jobs", jobs)
        assert code == 2 and out == ""
        assert err == f"input error: {message}\n"
        assert forks == []

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert all(row["pass"] for row in rows)

    def test_target_is_the_builders_constant(self, capsys):
        # C(2) * (1 / 3), the old sweep target, and build_sampling's C(2) * 1 / 3
        # differ in the last ulp
        code, out, _ = run_cli(
            capsys, "sweep", "--m-list", "3", "--s-list", "1/3", "--d-list", "2",
            "--format", "json",
        )
        assert code == 0
        (row,) = json.loads(out)
        report = expframes.build_sampling(expframes.GridSpectrum(3, (0,)), 2.0)
        assert row["C_target"] == report.constant_check

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


class TestWorkerProcesses:
    """sweep --jobs builds in processes forked before any thread starts."""

    def test_forks_once_per_worker_with_one_thread(self, capsys, forks):
        _, seq, _ = run_cli(capsys, *TestSweep.ARGS)
        assert forks == []
        for jobs, workers in (("2", 2), ("3", 3), ("8", 4)):
            before = len(forks)
            code, out, _ = run_cli(capsys, *TestSweep.ARGS, "--jobs", jobs)
            assert code == 0 and out == seq
            assert len(forks) - before == workers
        assert set(forks) == {1}

    def test_one_point_builds_in_process(self, capsys, forks):
        code, _, _ = run_cli(
            capsys, "sweep", "--m-list", "16", "--s-list", "1/4", "--d-list", "1", "--jobs", "4"
        )
        assert code == 0 and forks == []

    def test_no_fork_platform_builds_in_process(self, capsys, forks, monkeypatch):
        _, seq, _ = run_cli(capsys, *TestSweep.ARGS)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        threads = _build_threads(monkeypatch)
        code, out, _ = run_cli(capsys, *TestSweep.ARGS, "--jobs", "2")
        assert code == 0 and out == seq and forks == []
        assert threads == [threading.get_ident()] * 4

    def test_running_threads_prevent_fork(self, capsys, forks, monkeypatch):
        _, seq, _ = run_cli(capsys, *TestSweep.ARGS)
        threads = _build_threads(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        other.start()
        try:
            code, out, _ = run_cli(capsys, *TestSweep.ARGS, "--jobs", "2")
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert code == 0 and out == seq and forks == []
        assert threads == [threading.get_ident()] * 4

    def test_certificate_failure_in_worker_exits_1(self, capsys, forks, monkeypatch):
        original = verify.sampling_bounds
        d = 1.0

        def below(g, lam):
            target = lower_certificate_constant(d) * g.n / g.m
            return dataclasses.replace(original(g, lam), lower=math.nextafter(target, 0.0))

        monkeypatch.setattr(verify, "sampling_bounds", below)
        code, out, err = run_cli(
            capsys, "sweep", "--m-list", "16,32", "--s-list", "1/4", "--d-list", str(d),
            "--jobs", "2",
        )
        assert code == 1 and out == ""
        assert err.startswith("certificate failure:") and "below target" in err
        assert len(forks) == 2

    def test_first_failing_point_reports_as_in_serial(self, capsys, forks):
        # Both points exceed the step cap, each with its own message; the
        # larger one is built first under --jobs 2.
        argv = ("sweep", "--m-list", "8,16", "--s-list", "1/4", "--d-list", "50")
        serial = run_cli(capsys, *argv)
        assert serial[0] == 2 and "ceil(q*n)=102 " in serial[2]
        assert run_cli(capsys, *argv, "--jobs", "2") == serial
        assert len(forks) == 2

    def test_workers_run_blas_on_one_thread(self):
        # The workers set no thread count of their own: forked inside main's
        # pin, they keep it.  The spy fails any build in the parent and any
        # worker build on more than one BLAS thread.
        if _openblas("get") is None:
            pytest.skip("numpy carries no bundled OpenBLAS")
        script = (
            "import os, sys\n"
            "from expframes import cli\n"
            "from expframes.errors import CertificateFailed\n"
            "from expframes.linalg import _openblas_routines\n"
            "threads = _openblas_routines()['get_num_threads']\n"
            "if threads() != 2:\n"
            "    sys.exit(77)\n"
            "build, parent = cli.cons.build_sampling, os.getpid()\n"
            "def spy(grid, d):\n"
            "    if os.getpid() == parent:\n"
            "        raise CertificateFailed('built in the parent')\n"
            "    if (n := threads()) != 1:\n"
            "        raise CertificateFailed(f'worker BLAS on {n} threads')\n"
            "    return build(grid, d)\n"
            "cli.cons.build_sampling = spy\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        argv = [
            sys.executable, "-c", script, "sweep", "--m-list", "16,32", "--s-list", "1/4",
            "--d-list", "1", "--jobs", "2",
        ]
        env = {**_ENV, "OPENBLAS_NUM_THREADS": "2"}
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        if done.returncode == 77:
            pytest.skip("OpenBLAS does not run on 2 threads here")
        assert (done.returncode, done.stderr) == (0, "")
        assert len(done.stdout.splitlines()) == 2 + 2

    def test_every_build_runs_blas_on_one_thread(self, capsys, monkeypatch):
        threads = _openblas("get")
        if threads is None:
            pytest.skip("numpy carries no bundled OpenBLAS")
        seen = []
        build = cli.cons.build_sampling

        def spy(grid, d):
            seen.append(_openblas("get"))
            return build(grid, d)

        monkeypatch.setattr(cli.cons, "build_sampling", spy)
        _openblas("set", 2)  # a caller's own setting, restored after the sweep
        try:
            for jobs in ("1", "2"):
                # --jobs 2 builds serially here: a worker's spy would record
                # in the worker's memory, so hold a thread to keep the pool off
                release = threading.Event()
                other = threading.Thread(target=release.wait, args=(30,))
                other.start()
                try:
                    code, _, _ = run_cli(capsys, *TestSweep.ARGS, "--jobs", jobs)
                finally:
                    release.set()
                    other.join(timeout=30)
                assert code == 0 and _openblas("get") == 2
        finally:
            _openblas("set", threads)
        assert seen == [1] * 8

    def test_jobs_match_serial_bytes_with_blas_unpinned(self):
        # With BLAS on 2 threads in the caller, this row printed lower
        # ...06922 under --jobs 1 and ...06919 under --jobs 2 when only the
        # workers ran BLAS on one thread.
        argv = [
            sys.executable, "-m", "expframes.cli", "sweep", "--m-list", "1024",
            "--s-list", "3/16", "--d-list", "1,1.5", "--seed", "7",
        ]
        env = {**_ENV, "OPENBLAS_NUM_THREADS": "2"}
        outs = [
            subprocess.run(argv + ["--jobs", jobs], env=env, capture_output=True, timeout=300)
            for jobs in ("1", "2")
        ]
        assert [done.returncode for done in outs] == [0, 0]
        assert outs[0].stdout == outs[1].stdout
        assert b"\n1024,192,1.0,384," in outs[0].stdout

    def test_interrupt_ends_the_sweep(self):
        # Ctrl-C reaches the whole process group, workers included, while
        # most of the 288 points (over 10 s of work) are still to be built:
        # the sweep ends after the builds under way, not after all of them.
        argv = [
            sys.executable, "-m", "expframes.cli", "sweep", "--m-list", ",".join(["256"] * 32),
            "--s-list", "1/16,1/8,1/4", "--d-list", "0.5,1,3", "--jobs", "2",
        ]
        proc = subprocess.Popen(
            argv, env=_ENV, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            time.sleep(1.0)
            os.killpg(proc.pid, signal.SIGINT)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode != 0

    @pytest.mark.xfail(
        strict=True, raises=subprocess.TimeoutExpired,
        reason="Pool replaces a killed worker and Pool.apply waits for its task forever",
    )
    def test_killed_worker_ends_the_sweep(self):
        # A worker killed mid-build (SIGKILL, the OOM killer) must end the
        # sweep with an error; today the sweep waits for the lost m = 32 row.
        script = (
            "import os, signal, sys\n"
            "from expframes import cli\n"
            "build = cli.cons.build_sampling\n"
            "def spy(grid, d):\n"
            "    if grid.m == 32:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return build(grid, d)\n"
            "cli.cons.build_sampling = spy\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        argv = [
            sys.executable, "-c", script, "sweep", "--m-list", "16,32", "--s-list", "1/4",
            "--d-list", "1", "--jobs", "2",
        ]
        proc = subprocess.Popen(
            argv, env=_ENV, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            proc.wait(timeout=5)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode != 0

    def test_import_leaves_multiprocessing_unloaded(self):
        probe = "import sys, expframes.cli; print('multiprocessing' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe], env=_ENV, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestSharedParser:
    """main builds its parser once and parses every call afresh."""

    GRID = '{"m":16,"cells":[0,3]}'

    def test_built_once(self, capsys, monkeypatch):
        progs = []
        original = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        for _ in range(5):
            code, _, _ = run_cli(capsys, "construct", "--spectrum", self.GRID, "--d", "1")
            assert code == 0
        assert progs.count("expframes") <= 1
        assert _build_parser() is _build_parser()

    def test_no_state_leaks_between_calls(self, capsys):
        code, _, _ = run_cli(
            capsys, "construct", "--spectrum", self.GRID, "--mode", "bessel", "--k", "3"
        )
        assert code == 0
        code, _, err = run_cli(
            capsys, "construct", "--spectrum", self.GRID, "--mode", "sampling", "--d", "1"
        )
        assert code == 0, err

        code, out, _ = run_cli(
            capsys, "construct", "--spectrum", self.GRID, "--d", "1", "--format", "json"
        )
        assert code == 0 and json.loads(out)["pass"] is True
        code, out, _ = run_cli(
            capsys, "exhaust", "--spectrum", self.GRID, "--schedule", "16,32"
        )
        assert code == 0 and out.startswith("# expframes-csv v1")

        with pytest.raises(SystemExit) as exc:
            main(["construct", "--spectrum", self.GRID, "--mode", "nope"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "verify", "--spectrum", self.GRID, "--residues", "0,8")
        assert code == 0 and json.loads(out)["lower"] > 0


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
    """d so large that ceil((1+d)n) overflows is refused on the step cap.

    This holds for a full spectrum (n = m) too, which takes Z_m without a step
    at any finite (1+d)n.  At a finite d of about 1.6e21 and more, a full
    spectrum's target C(d) is refused instead.
    """

    @pytest.mark.parametrize("d", ["inf", "1e308"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "--spectrum", '{"m":8,"cells":[0,1]}', "--d"),
            ("construct", "--spectrum", '{"m":4,"cells":[0,1,2,3]}', "--d"),
            ("exhaust", "--spectrum", '{"m":8,"cells":[0,1]}', "--schedule", "8", "--d"),
            ("sweep", "--m-list", "8", "--s-list", "1/4", "--d-list"),
            ("sweep", "--m-list", "8", "--s-list", "1/4,1/2", "--jobs", "2", "--d-list"),
        ],
        ids=["construct", "construct-full", "exhaust", "sweep", "sweep-jobs2"],
    )
    def test_exits_2(self, capsys, argv, d):
        code, out, err = run_cli(capsys, *argv, d)
        assert code == 2 and out == ""
        assert "input error" in err and "exceeds the 10*m cap" in err

    @pytest.mark.parametrize("d", ["1e25", "1e31", "1e300"])
    def test_full_spectrum_target_near_1_exits_2(self, capsys, d):
        # C(d) lies within 1e-10 of 1, closer than verify certifies the
        # lower bound of Z_m: an input error, never a certificate failure
        for m in range(1, 65):
            spectrum = json.dumps({"m": m, "cells": list(range(m))})
            code, out, err = run_cli(capsys, "construct", "--spectrum", spectrum, "--d", d)
            assert (code, out) == (2, ""), (m, err)
            assert "input error" in err and "exceeds 1 - 1e-10" in err

    def test_full_spectrum_at_moderate_d_unchanged(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--spectrum", '{"m":4,"cells":[0,1,2,3]}', "--d", "8")
        assert code == 0
        assert out == (
            '{"m": 4, "n": 4, "cells": [0, 1, 2, 3], "residues": [0, 1, 2, 3], "kind": "sampling", '
            '"param": 8.0, "lower": 1.0, "upper": 1.0, "density": "1", "landau_floor": "1", '
            '"constant_check": 0.25, "pass": true}\n'
        )


def readme_cli_examples():
    """The `expframes ...` commands of the README's CLI sh block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("expframes ")]


README_EXAMPLES = readme_cli_examples()


class TestReadmeExamples:
    def test_examples_found(self):
        # the block documents every command; a parse that drops one fails here
        commands = {argv[0] for argv in README_EXAMPLES}
        assert commands == {"construct", "verify", "duality", "exhaust", "sweep"}

    @pytest.mark.parametrize(
        "argv", README_EXAMPLES, ids=[f"{i}-{argv[0]}" for i, argv in enumerate(README_EXAMPLES)]
    )
    def test_example_exits_0(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out
