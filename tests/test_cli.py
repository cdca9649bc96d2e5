import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ndppmap import Kernel, KernelDistribution, instances, load_kernel, principal_minor, save_kernel
from ndppmap import cli, downup
from ndppmap.cli import main


def run_cli(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return exc.value.code, report, out


class TestGen:
    def test_skew_block_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "skew.knl")
        code, rep, _ = run_cli(
            ["gen", "skew-block", "--c", "4,3,2", "--x", "100,200,300", "--out", path],
            capsys,
        )
        assert code == 0 and rep["n"] == 6
        K = load_kernel(path)
        assert principal_minor(K, (0, 1)) == pytest.approx(10016.0)
        assert principal_minor(K, (4, 5)) == pytest.approx(90004.0)

    def test_lowrank_reconstruction(self, tmp_path, capsys):
        path = str(tmp_path / "lr.knl")
        code, rep, _ = run_cli(
            ["gen", "lowrank-npsd", "--n", "7", "--d", "3", "--seed", "4", "--out", path],
            capsys,
        )
        assert code == 0 and rep["d"] == 3
        K = load_kernel(path)
        B, C = K.lowrank
        assert np.allclose(K.entries, B @ C @ B.T)

    def test_lowrank_rank_zero_usage(self, tmp_path, capsys):
        path = tmp_path / "lr.knl"
        code, rep, _ = run_cli(
            ["gen", "lowrank-npsd", "--n", "5", "--d", "0", "--out", str(path)], capsys
        )
        assert code == 4 and rep is None and not path.exists()


class TestMap:
    @pytest.fixture
    def skew_path(self, tmp_path, capsys):
        path = str(tmp_path / "skew.knl")
        run_cli(
            ["gen", "skew-block", "--c", "4,3,2", "--x", "100,200,300", "--out", path],
            capsys,
        )
        return path

    def test_oracle_confirms_optimum(self, skew_path, capsys):
        code, rep, _ = run_cli(
            ["map", "--kernel", skew_path, "--k", "2", "--r", "2", "--oracle"], capsys
        )
        assert code == 0
        assert rep["set"] == [4, 5]
        assert rep["oracle"]["ratio"] == pytest.approx(1.0)

    def test_standard_init_radius_one_gets_stuck(self, skew_path, capsys):
        code, rep, _ = run_cli(
            ["map", "--kernel", skew_path, "--k", "2", "--r", "1", "--init", "standard"],
            capsys,
        )
        assert code == 0
        assert rep["set"] == [0, 1] and rep["certified_local_max"]
        assert rep["value"] == pytest.approx(10016.0)

    def test_overflowing_marginals_pick_by_value(self, tmp_path):
        # Valid nPSD, but the fast step's sums overflow to NaN; the marginals
        # of 0 and 1 are inf, so greedy picks [0, 1], whose mu = 1 + 1e400 is
        # past float64: local search exits 3 from there, as a capacity limit.
        # The CLI runs in its own process, as a user runs it, so that a
        # warning would reach stderr.
        path = tmp_path / "big.knl"
        path.write_text("3\n1 1e200 0.5\n-1e200 1 0\n0.5 0 2\n")
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "ndppmap.cli", "map", "--kernel", str(path), "--k", "2"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == "capacity: mu(0, 1) = inf is past the float64 range\n"

    def test_overflowing_threshold_exits_cleanly(self, tmp_path):
        # The zero threshold of a size-3 pin, 1e-12 (1 + 1e200)^3, leaves the
        # float range; the pin reads as singular and takes the fallbacks.
        # Greedy ends on [0, 1, 2], whose mu is past float64: exit 3.
        path = tmp_path / "big4.knl"
        path.write_text("4\n1 1e200 0.5 0\n-1e200 1 0 0\n0.5 0 2 0\n0 0 0 3\n")
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "ndppmap.cli", "map", "--kernel", str(path), "--k", "3"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == "capacity: mu(0, 1, 2) = inf is past the float64 range\n"

    def test_non_finite_floats_print_as_null(self, capsys):
        cli._emit({"value": math.inf, "chain": [{"beta": -math.inf}, (math.nan, 1.5)]})
        text = capsys.readouterr().out
        assert text == '{"chain": [{"beta": null}, [null, 1.5]], "value": null}\n'

    def test_mu_past_float64_is_capacity(self, tmp_path, capsys):
        path = str(tmp_path / "big.knl")
        save_kernel(Kernel(np.diag([1e200, 1e200, 1.0, 2.0])), path)
        with pytest.raises(SystemExit) as exc:
            main(["map", "--kernel", path, "--k", "2"])
        out, err = capsys.readouterr()
        assert exc.value.code == 3 and out == ""
        assert err == "capacity: mu(0, 1) = inf is past the float64 range\n"

    def test_out_file_matches_stdout(self, skew_path, tmp_path, capsys):
        out = tmp_path / "map.json"
        code, rep, text = run_cli(
            ["map", "--kernel", skew_path, "--k", "2", "--out", str(out)], capsys
        )
        assert code == 0
        assert out.read_text() == text


    @pytest.mark.parametrize("command", ["map", "verify"])
    def test_unwritable_out_prints_nothing(self, command, skew_path, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        with pytest.raises(SystemExit) as exc:
            main([command, "--kernel", skew_path, "--k", "2", "--out", str(out)])
        captured = capsys.readouterr()
        assert exc.value.code == 4 and captured.out == ""
        assert captured.err.startswith("usage error: [Errno 2]")


def fresh_report(argv):
    """The report of argv run in a new interpreter, without its timing."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "ndppmap.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    report.pop("timing")
    return report


def test_back_to_back_calls_match_fresh_ones(tmp_path, capsys):
    # main builds its parser once per process; a flag given to one call must
    # not reach the next.
    path = str(tmp_path / "r7.knl")
    save_kernel(instances.random_npsd(7, 1), path)
    base = ["--kernel", path, "--k", "3"]
    for calls in (
        (["map", *base, "--oracle"], ["map", *base]),
        (["verify", *base, "--suite", "walk"], ["verify", *base]),
    ):
        for argv in calls:
            code, report, _ = run_cli(argv, capsys)
            report.pop("timing")
            assert code == 0 and report == fresh_report(argv)
    assert cli.build_parser() is cli.build_parser()


class TestExitCodes:
    def test_infeasible_zero_kernel(self, tmp_path, capsys):
        path = tmp_path / "zero.knl"
        path.write_text("3\n0 0 0\n0 0 0\n0 0 0\n")
        code, _, _ = run_cli(["map", "--kernel", str(path), "--k", "2"], capsys)
        assert code == 2

    def test_missing_file_usage(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["map", "--kernel", str(tmp_path / "nope.knl"), "--k", "2"], capsys
        )
        assert code == 4

    def test_malformed_file_usage(self, tmp_path, capsys):
        path = tmp_path / "bad.knl"
        path.write_text("2\n1 2 3\n")
        code, _, _ = run_cli(["map", "--kernel", str(path), "--k", "1"], capsys)
        assert code == 4

    def test_ragged_file_usage(self, tmp_path, capsys):
        path = tmp_path / "ragged.knl"
        path.write_text("2\n1 0\n0 1 0\n")
        code, rep, _ = run_cli(["map", "--kernel", str(path), "--k", "1"], capsys)
        assert code == 4 and rep is None

    def test_non_finite_kernel_usage(self, tmp_path, capsys):
        path = tmp_path / "nan.knl"
        path.write_text("3\n1 0 0\n0 nan 0\n0 0 inf\n")
        with pytest.raises(SystemExit) as exc:
            main(["map", "--kernel", str(path), "--k", "2"])
        assert exc.value.code == 4
        assert "non-finite kernel entries at (1, 1), (2, 2)" in capsys.readouterr().err

    def test_entries_past_bound_usage(self, tmp_path, capsys):
        # nPSD and finite, but conditioning on {0} would overflow L^{0}.
        path = tmp_path / "huge.knl"
        path.write_text("3\n2e285 1e297 0\n-1e297 1 0\n0 0 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["map", "--kernel", str(path), "--k", "2"])
        assert exc.value.code == 4
        err = capsys.readouterr().err
        assert err == "usage error: kernel entries reach 1.000e+297; |L_ij| must be at most 1e+290\n"

    def test_bad_flag_usage(self, capsys):
        code, _, _ = run_cli(["map", "--nonsense"], capsys)
        assert code == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "--k", "-1"],
            ["verify", "--k", "9", "--suite", "exchange"],
            ["verify", "--k", "-1", "--suite", "walk"],
            ["verify", "--k", "0", "--suite", "all"],
        ],
    )
    def test_k_outside_one_to_n_usage(self, argv, tmp_path, capsys):
        path = str(tmp_path / "r.knl")
        run_cli(["gen", "random-npsd", "--n", "6", "--out", path], capsys)
        code, rep, _ = run_cli([*argv, "--kernel", path], capsys)
        assert code == 4 and rep is None


    @pytest.mark.parametrize("zeta", ["0", "-1", "2", "nan"])
    def test_verify_zeta_outside_zero_one_usage(self, zeta, tmp_path, capsys):
        # n = 6, k = 2: three parts of exactly k elements, so no search reads zeta
        path = str(tmp_path / "r.knl")
        run_cli(["gen", "random-npsd", "--n", "6", "--out", path], capsys)
        code, rep, _ = run_cli(
            ["verify", "--kernel", path, "--k", "2", "--suite", "coreset", "--zeta", zeta],
            capsys,
        )
        assert code == 4 and rep is None


class TestVerify:
    def test_all_suites_pass_and_deterministic(self, tmp_path, capsys):
        path = str(tmp_path / "r.knl")
        run_cli(["gen", "random-npsd", "--n", "6", "--seed", "3", "--out", path], capsys)
        runs = []
        for _ in range(2):
            code, rep, _ = run_cli(
                ["verify", "--kernel", path, "--k", "2", "--suite", "all", "--seed", "1"],
                capsys,
            )
            assert code == 0 and rep["passed"]
            rep.pop("timing")
            runs.append(json.dumps(rep, sort_keys=True))
        assert runs[0] == runs[1]

    def test_all_suites_below_three_k(self, tmp_path, capsys):
        # n = 7 < 3k: the core-set suite splits [7] into 2 parts of at least k
        path = str(tmp_path / "r.knl")
        run_cli(["gen", "random-npsd", "--n", "7", "--seed", "1", "--out", path], capsys)
        code, rep, _ = run_cli(["verify", "--kernel", path, "--k", "3", "--suite", "all"], capsys)
        assert len(rep["suites"]["coreset"]["parts"]) == 2
        assert code == 0 and rep["passed"]

    def test_walk_suite_at_k_equal_n(self, tmp_path, capsys):
        # every chain has the one state [n], which has no cut
        path = str(tmp_path / "r.knl")
        run_cli(["gen", "random-npsd", "--n", "4", "--seed", "1", "--out", path], capsys)
        code, rep, _ = run_cli(["verify", "--kernel", path, "--k", "4", "--suite", "walk"], capsys)
        chains = rep["suites"]["walk"]["chains"]
        assert [c["num_states"] for c in chains] == [1, 1]
        assert [c["eig_dim"] for c in chains] == [1, 1]
        assert code == 0 and rep["passed"], chains

    @pytest.mark.parametrize("suite", ["exchange", "walk", "coreset"])
    def test_mu_past_float64_is_capacity(self, suite, tmp_path, capsys):
        # mu({0, 1}) = 1e400 overflows to inf: the exchange table, the walk's
        # support sum and the core-set union optimum are past float64, which
        # is a capacity limit
        path = str(tmp_path / "big.knl")
        save_kernel(Kernel(np.diag([1e200, 1e200, 1.0, 2.0])), path)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--kernel", path, "--k", "2", "--suite", suite])
        out, err = capsys.readouterr()
        assert exc.value.code == 3 and out == ""
        assert err.startswith("capacity: mu") and "past the float64 range" in err

    @pytest.mark.parametrize("n, k", [(21, 5), (60, 8)])
    def test_exchange_suite_past_its_cap_is_capacity(self, n, k, tmp_path, capsys, monkeypatch):
        # C(21, 5) = 20,349 is just past the cap; (60, 8) once ran out of memory
        path = str(tmp_path / "r.knl")
        save_kernel(instances.random_npsd(n, 1), path)
        monkeypatch.setattr(KernelDistribution, "tabulate", lambda mu: pytest.fail("tabulated"))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--kernel", path, "--k", str(k), "--suite", "exchange"])
        out, err = capsys.readouterr()
        assert exc.value.code == 3 and out == ""
        assert err == f"capacity: C({n},{k}) exceeds the all-pairs cap 20000\n"

    def test_walk_suite_reports_eigenproblem_size(self, tmp_path, capsys):
        # 15 states: l = 0 has one core and l = 1 six, so both solve on the core side
        path = str(tmp_path / "r.knl")
        run_cli(["gen", "random-npsd", "--n", "6", "--seed", "3", "--out", path], capsys)
        code, rep, _ = run_cli(["verify", "--kernel", path, "--k", "2", "--suite", "walk"], capsys)
        chains = rep["suites"]["walk"]["chains"]
        assert [(c["l"], c["num_states"], c["eig_dim"]) for c in chains] == [(0, 15, 1), (1, 15, 6)]
        assert all(c["ok"] for c in chains)
        assert code == 0 and rep["passed"], chains

    def test_walk_suite_builds_no_dense_chain(self, tmp_path, capsys, monkeypatch):
        # 495 states: past the exact conductance, nothing reads the flow, and
        # both chains solve on the core side, so no m x m array is built
        path = str(tmp_path / "r.knl")
        run_cli(["gen", "random-npsd", "--n", "12", "--seed", "1", "--out", path], capsys)
        for name in ("flow", "state_gram"):
            monkeypatch.setattr(downup.DownUpChain, name, lambda C: pytest.fail("m x m array"))
        code, rep, _ = run_cli(["verify", "--kernel", path, "--k", "4", "--suite", "walk"], capsys)
        chains = rep["suites"]["walk"]["chains"]
        assert [(c["l"], c["num_states"]) for c in chains] == [(2, 495), (3, 495)]
        assert not any("reversibility_err" in c or "factor_err" in c for c in chains)
        assert code == 0 and rep["passed"], chains

    @pytest.mark.parametrize("n, k, bound", [(7, 2, "conductance"), (12, 4, "conductance_bounds")])
    def test_walk_chain_report_keys(self, n, k, bound, tmp_path, capsys):
        # 21 states take the exact conductance and 495 its Cheeger bounds;
        # besides that the keys are the same, with no dense-P check
        path = str(tmp_path / "r.knl")
        run_cli(["gen", "random-npsd", "--n", str(n), "--seed", "1", "--out", path], capsys)
        code, rep, _ = run_cli(["verify", "--kernel", path, "--k", str(k), "--suite", "walk"], capsys)
        chains = rep["suites"]["walk"]["chains"]
        keys = {"n", "k", "l", "num_states", "row_sum_err", "min_eigenvalue", "eig_dim",
                "stationarity_err", "gap", "gap_positive", "cheeger_ok", bound, "ok"}
        assert [set(c) for c in chains] == [keys, keys]
        assert {c["num_states"] for c in chains} == {math.comb(n, k)}
        assert code == 0 and rep["passed"], chains

    def test_suites_share_one_table(self, tmp_path, capsys, monkeypatch):
        # the exchange and walk suites read one table of the kernel, and so
        # does the core-set suite's brute force over the union of its parts,
        # which is the whole ground set
        path = str(tmp_path / "r.knl")
        run_cli(["gen", "random-npsd", "--n", "9", "--seed", "2", "--out", path], capsys)
        import ndppmap.setdist as setdist

        sizes = []
        table = setdist.kernel_table
        monkeypatch.setattr(setdist, "kernel_table", lambda K, k: sizes.append(K.n) or table(K, k))
        code, rep, _ = run_cli(["verify", "--kernel", path, "--k", "2", "--suite", "all"], capsys)
        assert code == 0 and rep["passed"]
        assert sizes.count(9) == 1

    def test_verify_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "r.knl")
        run_cli(["gen", "random-npsd", "--n", "5", "--seed", "0", "--out", path], capsys)
        import ndppmap.cli as cli_mod

        monkeypatch.setitem(
            cli_mod.cmd_verify.__globals__, "_suite_exchange",
            lambda mu, args: {"passed": False},
        )
        code, rep, _ = run_cli(
            ["verify", "--kernel", path, "--k", "2", "--suite", "exchange"], capsys
        )
        assert code == 1 and not rep["passed"]


def test_failed_allocation_is_capacity(tmp_path):
    # the l = 6 chain at (16, 8) solves on its 8,008 cores, whose Gram matrix
    # needs 489 MiB, past a 512 MiB address space that already holds the
    # interpreter and numpy
    resource = pytest.importorskip("resource")
    path = str(tmp_path / "r16.knl")
    save_kernel(instances.random_npsd(16, 1), path)
    limit = 512 << 20
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "ndppmap.cli", "verify", "--kernel", path, "--k", "8", "--suite", "walk"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 3 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("capacity: Unable to allocate")


def test_cli_runs_without_numpy_ma(tmp_path):
    # a first import of numpy.ma takes milliseconds, which would land in set-up
    script = f"""
import sys
from ndppmap import instances
from ndppmap.cli import main
from ndppmap.kernel import save_kernel
path = {str(tmp_path / "r9.knl")!r}
save_kernel(instances.random_npsd(9, 1), path)
for argv in (["verify", "--kernel", path, "--k", "3", "--suite", "all"],
             ["map", "--kernel", path, "--k", "3"]):
    try:
        main(argv)
    except SystemExit as exc:
        assert exc.code == 0, (argv, exc.code)
assert "numpy.ma" not in sys.modules
"""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
