import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pblr import experiments as exp
from pblr.cli import _sine_meta, build_parser, main


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


@pytest.mark.parametrize("flags", [[], ["--grid-size", 1, "--degrees", 3, 1],
                                   ["--grid-size", 3, "--degrees", 5, 2, 5]])
def test_fig_a_table_equals_the_per_cell_table(tmp_path, flags):
    # cli formats each grid point and degree once; write_csv would format every cell
    argv = [str(a) for a in ["fig-a", "--seed", 1, *flags]]
    assert run([*argv, "--out", tmp_path / "cli"]) == 0
    args = build_parser().parse_args(argv)
    _, degrees, grid, preds = exp.run_fig_a(seed=1, degrees=args.degrees,
                                            grid_size=args.grid_size)
    rows = [(degree, x, p) for degree, pred in zip(degrees, preds.tolist())
            for x, p in zip(grid.tolist(), pred)]
    assert all(isinstance(cell, float) for _, *cells in rows for cell in cells)
    exp.write_csv(tmp_path / "cells" / "fig_a.csv", ("degree", "x", "mean_prediction"), rows,
                  {**_sine_meta(args), "grid_size": args.grid_size})
    assert (tmp_path / "cli" / "fig_a.csv").read_bytes() == \
        (tmp_path / "cells" / "fig_a.csv").read_bytes()


def test_write_csv_refuses_nan_beside_a_str_column(tmp_path):
    path = tmp_path / "new" / "fig_a.csv"
    rows = [("1", "0.0", 0.5), ("1", "0.5", 0.25), ("2", "0.0", math.nan)]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: p = nan is not finite')}$"):
        exp.write_csv(path, ("degree", "x", "p"), rows, {})
    assert not path.parent.exists()


def test_rerun_reproduces_identical_bytes(tmp_path):
    for case, (argv, files) in enumerate((
            (["fig-a", "--seed", 5], ["fig_a.csv", "train.csv"]),
            (["fig-b", "--seed", 5], ["fig_b.csv"]),
            (["fig-b", "--seeds", 50], ["fig_b_selection.csv"]),
            (["validate", "--trials", 2, "--mgf-m", 10000], ["coverage.json", "mgf.csv"]),
            (["fig-c", "--n-grid", 10, 100], ["fig_c.csv"]))):
        a, b = tmp_path / str(case) / "a", tmp_path / str(case) / "b"
        for out in (a, b):
            assert run([*argv, "--out", out]) == 0
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


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


def test_fig_b_has_no_test_size_flag(tmp_path, capsys):
    # fig-b's test set is always exp.FIG_B_TEST_SIZE points
    out = tmp_path / "new"
    assert run(["fig-b", "--test-size", 5, "--out", out]) == 1
    assert capsys.readouterr().err.split("\n") == [
        "error: unrecognized arguments: --test-size 5", ""]
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["fig-b", "--seeds", 0], "--seeds"),
    (["fig-b", "--seeds", -3], "--seeds"),
    (["fig-a", "--grid-size", 0], "--grid-size"),
    (["fig-a", "--n", 0], "--n"),
    (["fig-b", "--n", 0], "--n"),
    (["fig-c", "--n-grid", 10, 0], "--n-grid"),
    (["fig-a", "--degrees", 0], "--degrees"),
    # a later copy of the flag does not rescue an out-of-range one
    (["validate", "--trials", 0, "--trials", 5, "--mgf-m", 10000], "--trials"),
], ids=["fig-b-seeds-0", "fig-b-seeds-neg", "fig-a-grid-size-0", "fig-a-n-0", "fig-b-n-0",
        "fig-c-n-grid-0", "fig-a-degrees-0", "validate-trials-0-then-5"])
def test_meaningless_count_exits_nonzero(tmp_path, capsys, argv, flag):
    assert run([*argv, "--out", tmp_path]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith(f"error: {flag} must be at least 1")
    assert list(tmp_path.iterdir()) == []


def test_out_of_range_flag_fails_before_out_is_created(tmp_path, capsys):
    out = tmp_path / "new"
    assert run(["fig-a", "--n", 0, "--out", out]) == 1
    assert capsys.readouterr().err.strip().split("\n") == ["error: --n must be at least 1, got 0"]
    assert not out.exists()


def test_late_failure_leaves_no_out_directory(tmp_path, capsys):
    # degree 40 parses, then fails in the fit: the command writes nothing, not even --out
    out = tmp_path / "new"
    assert run(["fig-a", "--degrees", 40, "--out", out]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error: posterior precision")
    assert not out.exists()


def test_out_that_is_a_file_gives_one_line(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("kept\n", encoding="utf-8")
    assert run(["fig-a", "--grid-size", 2, "--out", out]) == 1
    assert capsys.readouterr().err.split("\n") == [f"error: File exists: {out}", ""]
    assert out.read_text(encoding="utf-8") == "kept\n"


def test_os_error_while_writing_gives_one_line(tmp_path, capsys):
    # the error stops at train.csv; fig_a.csv, written first, stays
    (tmp_path / "train.csv").mkdir()
    assert run(["fig-a", "--grid-size", 2, "--out", tmp_path]) == 1
    assert capsys.readouterr().err.split("\n") == [
        f"error: Is a directory: {tmp_path / 'train.csv'}", ""]


@pytest.mark.parametrize("argv, flag", [
    (["fig-c", "--crop", 4, 1], "--crop"),
    (["fig-c", "--crop", 1, "inf"], "--crop"),
    (["fig-c", "--delta", 2], "--delta"),
    (["validate", "--delta", 0], "--delta"),
    (["fig-a", "--sigma2", -1], "--sigma2"),
    (["fig-b", "--sigma-pi2", 0], "--sigma-pi2"),
    (["fig-c", "--sigma-pi2", "nan"], "--sigma-pi2"),
    (["fig-c", "--sigma2", "inf"], "--sigma2"),
    (["fig-c", "--sigma2", "-1e-3"], "--sigma2"),
    (["validate", "--delta", "-1E-2"], "--delta"),
    (["fig-c", "--sigma2", "-inf"], "--sigma2"),
    (["fig-b", "--sigma-pi2", "-Infinity"], "--sigma-pi2"),
    (["fig-c", "--crop", "-INF", 1], "--crop"),
    (["validate", "--delta", "-nan"], "--delta"),
], ids=["fig-c-crop-reversed", "fig-c-crop-inf", "fig-c-delta-2", "validate-delta-0",
        "fig-a-sigma2-neg", "fig-b-sigma-pi2-0", "fig-c-sigma-pi2-nan", "fig-c-sigma2-inf",
        "fig-c-sigma2-neg-exp", "validate-delta-neg-exp", "fig-c-sigma2-neg-inf",
        "fig-b-sigma-pi2-neg-infinity", "fig-c-crop-neg-inf", "validate-delta-neg-nan"])
def test_out_of_range_value_names_the_flag(tmp_path, capsys, argv, flag):
    assert run([*argv, "--out", tmp_path]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith(f"error: {flag} ")
    assert list(tmp_path.iterdir()) == []


def test_negative_exponent_value_parses(tmp_path):
    # argparse alone reads -1e3 as an option: "expected 2 arguments"
    assert run(["fig-c", "--crop", "-1e3", "1e3", "--n-grid", 10, "--out", tmp_path]) == 0
    assert (tmp_path / "fig_c.csv").exists()


@pytest.mark.parametrize("command, study", [
    ("fig-a", "run_fig_a"), ("fig-c", "run_fig_c"), ("validate", "run_validate"),
])
def test_out_of_memory_gives_one_line(tmp_path, capsys, monkeypatch, command, study):
    def allocate(**_):
        raise MemoryError("Unable to allocate 745. GiB for an array")
    monkeypatch.setattr(exp, study, allocate)
    assert run([command, "--out", tmp_path]) == 1
    assert capsys.readouterr().err.strip().split("\n") == [
        "error: out of memory: Unable to allocate 745. GiB for an array"]
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


@pytest.mark.parametrize("argv", [["fig-a"], ["fig-b"], ["fig-c", "--n-grid", 10]],
                         ids=["fig-a", "fig-b", "fig-c"])
def test_sigma2_whose_log_constant_overflows_names_noise_var(tmp_path, capsys, argv):
    # 2*pi*1e308 overflows, so the NLL constant log(2*pi*sigma2) would be inf
    assert run([*argv, "--sigma2", "1e308", "--out", tmp_path]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and "noise_var" in err[0]
    assert list(tmp_path.iterdir()) == []


def test_subgamma_scale_error_names_c_and_variances(tmp_path, capsys):
    assert run(["fig-c", "--n-grid", 10, "--sigma-pi2", 100, "--out", tmp_path]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert "c = input_var*prior_var/sigma2 = 50.0" in err[0]
    assert "sigma2 = 2.0" in err[0] and "prior_var = 100.0" in err[0]
    assert not (tmp_path / "fig_c.csv").exists()


@pytest.mark.parametrize("argv, csv", [
    (["fig-b", "--sigma2", "1e-300"], "fig_b.csv"),
    (["fig-c", "--sigma-pi2", "1e-320", "--n-grid", 10], "fig_c.csv"),
    (["fig-b", "--degrees", 40], "fig_b.csv"),
    (["fig-b", "--seeds", 3, "--sigma2", "1e-300"], "fig_b_selection.csv"),
    (["fig-b", "--seeds", 3, "--degrees", 40], "fig_b_selection.csv"),
], ids=["fig-b-sigma2", "fig-c-sigma-pi2", "fig-b-degree-40", "scan-sigma2",
        "scan-degree-40"])
def test_nonfinite_precision_fails_closed(tmp_path, capsys, argv, csv):
    assert run([*argv, "--out", tmp_path]) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and "noise_var" in err[0] and "prior_var" in err[0]
    assert not (tmp_path / csv).exists()


@pytest.mark.parametrize("argv, message", [
    # seeds 1 and 2 fit degree 14; seed 3 is the first that cannot
    (["--seed", 1, "--seeds", 3, "--degrees", 7, 12, 14],
     "posterior precision is not positive definite at d = 15, noise_var = 0.5, "
     "prior_var = 200.0"),
    (["--seed", 1, "--seeds", 3, "--degrees", 400], "design matrix contains non-finite entries"),
    # seed 3 fails at degree 14, but seed 1 fails first, at degree 15
    (["--seed", 1, "--seeds", 3, "--degrees", 14, 15],
     "posterior precision is not positive definite at d = 16, noise_var = 0.5, "
     "prior_var = 200.0"),
], ids=["degrees-7-12-14", "degree-400", "seed-order"])
def test_seed_scan_fails_closed_with_the_per_seed_error(tmp_path, capsys, argv, message):
    assert run(["fig-b", *argv, "--out", tmp_path]) == 1
    assert capsys.readouterr().err.strip().split("\n") == [f"error: {message}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sigma_pi2", ["1e-15", "1e-16", "1e-17"])
def test_rounding_negative_kl_reaches_the_bounds_as_zero(tmp_path, sigma_pi2):
    # the KL of a posterior pinned to the prior comes out near -1e-13 from rounding
    for seed in range(1, 6):
        out = tmp_path / str(seed)
        assert run(["fig-c", "--seed", seed, "--sigma-pi2", sigma_pi2,
                    "--n-grid", 10, 1000, "--out", out]) == 0
        lines = (out / "fig_c.csv").read_text(encoding="utf-8").strip().split("\n")
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 2


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


def test_narrow_crop_gives_finite_bounds(tmp_path):
    # 1 - exp(a - b) is 0 at this crop, which divided the Catoni bound by zero
    assert run(["fig-c", "--n-grid", 10, "--crop", "1e-300", "2e-300", "--out", tmp_path]) == 0
    lines = (tmp_path / "fig_c.csv").read_text(encoding="utf-8").strip().split("\n")
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 1
    assert all(math.isfinite(float(v)) for v in rows[0].split(","))


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


def test_omitted_seed_writes_the_default(tmp_path):
    assert run(["fig-a", "--grid-size", 2, "--out", tmp_path]) == 0
    assert metadata(tmp_path / "fig_a.csv")["seed"] == str(exp.DEFAULT_SEED) == "1"


def metadata(path):
    return {l[2:].split(" = ")[0]: l.split(" = ")[1]
            for l in path.read_text(encoding="utf-8").split("\n") if l.startswith("# ")}


def test_each_call_uses_its_own_seed(tmp_path):
    # main keeps one parser per process; an omitted --seed is the default, not the last one given
    for seed in ("7", "8"):
        assert run(["fig-b", "--seed", seed, "--out", tmp_path / seed]) == 0
    assert run(["fig-b", "--out", tmp_path / "omitted"]) == 0
    assert [metadata(tmp_path / out / "fig_b.csv")["seed"] for out in ("7", "8", "omitted")] == \
        ["7", "8", str(exp.DEFAULT_SEED)]


def test_list_flags_do_not_leak_into_the_next_call(tmp_path):
    assert run(["fig-b", "--degrees", 3, 1, "--out", tmp_path / "given"]) == 0
    assert run(["fig-b", "--out", tmp_path / "default"]) == 0
    assert metadata(tmp_path / "given" / "fig_b.csv")["degrees"] == "3 1"
    assert metadata(tmp_path / "default" / "fig_b.csv")["degrees"] == "1 2 3 4 5 6 7"


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
        best = rows[nles.index(min(nles))][0]
        expected[best] = expected.get(best, 0) + 1
    assert run(["fig-b", "--seed", 0, "--seeds", 20, "--out", tmp_path]) == 0
    lines = (tmp_path / "fig_b_selection.csv").read_text(encoding="utf-8").split("\n")
    table = [l for l in lines if l and not l.startswith("#")][1:]
    assert {int(d): int(w) for d, w in (l.split(",") for l in table)} == expected


def test_commands_load_no_scipy(tmp_path):
    # a fresh interpreter, since the test oracles load scipy into this one
    code = ("import sys\n"
            "import pblr.cli\n"
            "for argv in (['fig-a'], ['fig-b'], ['fig-b', '--seeds', '50'],\n"
            "             ['fig-c', '--n-grid', '10', '1000'],\n"
            "             ['validate', '--trials', '20', '--mgf-m', '10000']):\n"
            f"    assert pblr.cli.main([*argv, '--out', {str(tmp_path)!r}]) == 0\n"
            "leaked = sorted(name for name in sys.modules if name.startswith('scipy'))\n"
            "assert not leaked, leaked\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "coverage.json", "fig_a.csv", "fig_b.csv", "fig_b_selection.csv", "fig_c.csv",
        "mgf.csv", "train.csv"]
