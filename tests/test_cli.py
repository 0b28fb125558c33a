import json
import math
import time

import pytest

from pblr import experiments as exp
from pblr.cli import build_parser, main


def run(args):
    return main([str(a) for a in args])


def test_fig_a_writes_files(tmp_path):
    assert run(["fig-a", "--seed", 3, "--out", tmp_path,
                "--grid-size", 40, "--degrees", 1, 2]) == 0
    fig = (tmp_path / "fig_a.csv").read_text(encoding="utf-8")
    lines = fig.strip().split("\n")
    meta = [l for l in lines if l.startswith("# ")]
    assert any(l.startswith("# seed = 3") for l in meta)
    assert any(l.startswith("# tool_version = ") for l in meta)
    header_idx = len(meta)
    assert lines[header_idx] == "degree,x,mean_prediction"
    assert len(lines) - header_idx - 1 == 2 * 40
    train_lines = (tmp_path / "train.csv").read_text(
        encoding="utf-8").strip().split("\n")
    train_meta = [l for l in train_lines if l.startswith("# ")]
    assert any(l.startswith("# tool_version = ") for l in train_meta)
    assert train_lines[len(train_meta)] == "x_0,y"
    assert len(train_lines) - len(train_meta) == 16


def test_rerun_reproduces_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["fig-b", "--seed", 5, "--out", out]) == 0
    assert (a / "fig_b.csv").read_bytes() == (b / "fig_b.csv").read_bytes()


def test_fig_b_columns(tmp_path):
    assert run(["fig-b", "--seed", 1, "--out", tmp_path]) == 0
    lines = (tmp_path / "fig_b.csv").read_text(encoding="utf-8").strip().split("\n")
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "degree,neg_log_evidence,gibbs_emp_risk_total,kl,test_risk"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 7
    for line in data:
        deg, nle, gibbs, kl, _ = (float(v) for v in line.split(","))
        assert abs(nle - (gibbs + kl)) <= 1e-8 * max(1.0, abs(nle))


def test_fig_b_seeds_mode(tmp_path):
    assert run(["fig-b", "--seed", 0, "--seeds", 3, "--out", tmp_path]) == 0
    lines = (tmp_path / "fig_b_selection.csv").read_text(
        encoding="utf-8").strip().split("\n")
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "degree,wins"
    wins = sum(int(l.split(",")[1]) for l in lines
               if not l.startswith("#") and l != header)
    assert wins == 3


def test_invalid_degree_exits_nonzero(tmp_path, capsys):
    assert run(["fig-a", "--out", tmp_path, "--degrees", 0]) == 1
    assert "degrees" in capsys.readouterr().err


def test_invalid_seed_env_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PBL_SEED", "abc")
    assert run(["fig-a", "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "error: PBL_SEED must be an integer, got 'abc'"
    assert not (tmp_path / "fig_a.csv").exists()


def test_empty_test_set_exits_nonzero(tmp_path, capsys):
    assert run(["fig-b", "--out", tmp_path, "--test-size", 0]) == 1
    assert capsys.readouterr().err.strip() == "error: --test-size must be at least 1, got 0"
    assert not (tmp_path / "fig_b.csv").exists()


@pytest.mark.parametrize("argv, flag", [
    (["fig-b", "--seeds", 0], "--seeds"),
    (["fig-b", "--seeds", -3], "--seeds"),
    (["fig-a", "--grid-size", 0], "--grid-size"),
    (["fig-a", "--n", 0], "--n"),
    (["fig-b", "--n", 0], "--n"),
    (["fig-b", "--seeds", 3, "--test-size", -5], "--test-size"),
    (["fig-c", "--n-grid", 10, 0], "--n-grid"),
    (["fig-a", "--degrees", 0], "--degrees"),
], ids=["fig-b-seeds-0", "fig-b-seeds-neg", "fig-a-grid-size-0", "fig-a-n-0", "fig-b-n-0",
        "fig-b-seeds-test-size-neg", "fig-c-n-grid-0", "fig-a-degrees-0"])
def test_meaningless_count_exits_nonzero(tmp_path, capsys, argv, flag):
    assert run([*argv, "--out", tmp_path]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith(f"error: {flag} must be at least 1")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (["fig-c", "--crop", 4, 1], "--crop"),
    (["fig-c", "--crop", 1, "inf"], "--crop"),
    (["fig-c", "--delta", 2], "--delta"),
    (["validate", "--delta", 0], "--delta"),
    (["fig-a", "--sigma2", -1], "--sigma2"),
    (["fig-b", "--sigma-pi2", 0], "--sigma-pi2"),
    (["fig-c", "--sigma-pi2", "nan"], "--sigma-pi2"),
    (["fig-c", "--sigma2", "inf"], "--sigma2"),
], ids=["fig-c-crop-reversed", "fig-c-crop-inf", "fig-c-delta-2", "validate-delta-0",
        "fig-a-sigma2-neg", "fig-b-sigma-pi2-0", "fig-c-sigma-pi2-nan", "fig-c-sigma2-inf"])
def test_out_of_range_value_names_the_flag(tmp_path, capsys, argv, flag):
    assert run([*argv, "--out", tmp_path]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith(f"error: {flag} ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value, low", [
    ("--trials", 0, 1),
    ("--mgf-m", 100, 10_000),
    ("--seed", -1, 0),
])
def test_validate_count_names_the_flag(tmp_path, capsys, flag, value, low):
    assert run(["validate", flag, value, "--out", tmp_path]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert err == [f"error: {flag} must be at least {low}, got {value}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["validate", "--trials", "abc"], "error: argument --trials: invalid int value: 'abc'"),
    (["fig-c", "--delta", "x"], "error: argument --delta: invalid float value: 'x'"),
    (["fig-a", "--bogus"], "error: unrecognized arguments: --bogus"),
], ids=["validate-trials-abc", "fig-c-delta-x", "fig-a-bogus"])
def test_malformed_argument_gives_one_line(tmp_path, capsys, argv, message):
    assert run([*argv, "--out", tmp_path / "out"]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip().split("\n") == [message]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_help_and_version_still_exit_zero():
    for argv in (["--help"], ["--version"], ["fig-c", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0


def test_subgamma_scale_error_names_c_and_variances(tmp_path, capsys):
    assert run(["fig-c", "--n-grid", 10, "--sigma-pi2", 100, "--out", tmp_path]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert "c = input_var*prior_var/sigma2 = 50.0" in err[0]
    assert "sigma2 = 2.0" in err[0] and "prior_var = 100.0" in err[0]
    assert not (tmp_path / "fig_c.csv").exists()


@pytest.mark.parametrize("command", ["fig-a", "fig-b", "fig-c", "validate"])
def test_negative_seed_from_env_names_the_flag(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("PBL_SEED", "-1")
    assert run([command, "--out", tmp_path]) == 1
    assert capsys.readouterr().err.strip().split("\n") == [
        "error: --seed must be at least 0, got -1"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, csv", [
    (["fig-b", "--sigma2", "1e-300"], "fig_b.csv"),
    (["fig-c", "--sigma-pi2", "1e-320", "--n-grid", 10], "fig_c.csv"),
    (["fig-b", "--degrees", 40], "fig_b.csv"),
], ids=["fig-b-sigma2", "fig-c-sigma-pi2", "fig-b-degree-40"])
def test_nonfinite_precision_fails_closed(tmp_path, capsys, argv, csv):
    assert run([*argv, "--out", tmp_path]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and "noise_var" in err[0] and "prior_var" in err[0]
    assert not (tmp_path / csv).exists()


@pytest.mark.parametrize("argv", [
    ["--crop", 1, "1e160", "--n-grid", 10],            # (b - a) ** 2 overflows
    ["--crop", 0, "1e308", "--n-grid", 10],            # the residual threshold overflows
    ["--crop", 1, "1e150", "--n-grid", 10, 1000000],   # lambda = n makes the Hoeffding term inf
], ids=["b-1e160", "b-1e308", "b-1e150-n-1e6"])
def test_huge_crop_fails_closed(tmp_path, capsys, argv):
    # pytest turns a RuntimeWarning into an error, so none is raised on the way
    assert run(["fig-c", *argv, "--out", tmp_path]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_hidden_mc_weights_flag_is_ignored(tmp_path, capsys):
    # perfbench's coverage workload still passes --mc-weights
    with pytest.raises(SystemExit):
        run(["validate", "--help"])
    assert "--mc-weights" not in capsys.readouterr().out
    common = ["validate", "--seed", 5, "--trials", 2, "--mgf-m", 10_000]
    assert run([*common, "--out", tmp_path / "plain"]) == 0
    assert run([*common, "--mc-weights", 200, "--out", tmp_path / "flag"]) == 0
    assert (tmp_path / "flag" / "coverage.json").read_bytes() == \
        (tmp_path / "plain" / "coverage.json").read_bytes()


def test_tiny_delta_gives_finite_bounds(tmp_path):
    assert run(["fig-c", "--n-grid", 10, "--delta", "1e-320", "--out", tmp_path]) == 0
    lines = (tmp_path / "fig_c.csv").read_text(encoding="utf-8").strip().split("\n")
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 1
    assert all(math.isfinite(float(v)) for v in rows[0].split(","))


def test_fig_c_quick(tmp_path):
    assert run(["fig-c", "--seed", 2, "--out", tmp_path, "--n-grid", 10, 100]) == 0
    lines = (tmp_path / "fig_c.csv").read_text(encoding="utf-8").strip().split("\n")
    meta = {l.split(" = ")[0][2:]: l.split(" = ")[1]
            for l in lines if l.startswith("# ")}
    assert float(meta["c"]) == 0.005
    assert 0.2795 <= float(meta["s2"]) <= 0.2810
    assert not any(key.startswith("mc_") for key in meta)  # nothing is sampled
    header = next(l for l in lines if not l.startswith("#"))
    assert header.split(",") == ["n", "emp_gibbs_nll", "gen_gibbs_nll",
                                 "bound_subgamma", "bound_catoni_cropped",
                                 "bound_alquier_sqrtn_cropped",
                                 "bound_alquier_n_cropped"]


def test_validate_smoke_run_is_fast(tmp_path):
    start = time.monotonic()
    code = run(["validate", "--seed", 4, "--out", tmp_path, "--trials", 1,
                "--mgf-m", 10000])
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < 5.0
    payload = json.loads((tmp_path / "coverage.json").read_text(encoding="utf-8"))
    assert payload["config"]["seed"] == 4
    assert payload["config"]["trials"] == 1
    assert {f["family"] for f in payload["families"]} == \
        {"subgamma", "catoni", "alquier_sqrtn"}
    mgf_lines = (tmp_path / "mgf.csv").read_text(encoding="utf-8").strip().split("\n")
    assert "lambda,psi_hat,envelope,band" in mgf_lines


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("PBL_SEED", "99")
    args = build_parser().parse_args(["fig-a"])
    assert args.seed == 99
    monkeypatch.delenv("PBL_SEED")
    args = build_parser().parse_args(["fig-a"])
    assert args.seed != 99


def test_explicit_seed_overrides_env(monkeypatch):
    monkeypatch.setenv("PBL_SEED", "99")
    args = build_parser().parse_args(["fig-a", "--seed", "5"])
    assert args.seed == 5


def test_tiny_sigma2_names_the_flag(tmp_path, capsys):
    assert run(["fig-c", "--sigma2", "1e-320", "--n-grid", 10, "--out", tmp_path]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and "sigma2" in err[0]
    assert not (tmp_path / "fig_c.csv").exists()


def test_seed_scan_selects_fig_b_evidence_argmin(tmp_path):
    expected = {}
    for seed in range(20):
        rows = exp.run_fig_b(seed=seed)
        nles = [row[1] for row in rows]
        family = exp.polynomial_family(seed=seed)
        assert [report.neg_log_evidence for _, report in family] == nles  # bitwise
        best = rows[nles.index(min(nles))][0]
        expected[best] = expected.get(best, 0) + 1
    assert run(["fig-b", "--seed", 0, "--seeds", 20, "--out", tmp_path]) == 0
    lines = (tmp_path / "fig_b_selection.csv").read_text(encoding="utf-8").split("\n")
    table = [l for l in lines if l and not l.startswith("#")][1:]
    assert {int(d): int(w) for d, w in (l.split(",") for l in table)} == expected
