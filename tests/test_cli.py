import json

import numpy as np
import pytest

from ndppmap import load_kernel, principal_minor
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

    def test_out_file_matches_stdout(self, skew_path, tmp_path, capsys):
        out = tmp_path / "map.json"
        code, rep, text = run_cli(
            ["map", "--kernel", skew_path, "--k", "2", "--out", str(out)], capsys
        )
        assert code == 0
        assert out.read_text() == text


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

    def test_non_finite_kernel_usage(self, tmp_path, capsys):
        path = tmp_path / "nan.knl"
        path.write_text("3\n1 0 0\n0 nan 0\n0 0 inf\n")
        with pytest.raises(SystemExit) as exc:
            main(["map", "--kernel", str(path), "--k", "2"])
        assert exc.value.code == 4
        assert "non-finite kernel entries at (1, 1), (2, 2)" in capsys.readouterr().err

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

    def test_verify_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "r.knl")
        run_cli(["gen", "random-npsd", "--n", "5", "--seed", "0", "--out", path], capsys)
        import ndppmap.cli as cli_mod

        monkeypatch.setitem(
            cli_mod.cmd_verify.__globals__, "_suite_exchange",
            lambda K, k, args: {"passed": False},
        )
        code, rep, _ = run_cli(
            ["verify", "--kernel", path, "--k", "2", "--suite", "exchange"], capsys
        )
        assert code == 1 and not rep["passed"]
