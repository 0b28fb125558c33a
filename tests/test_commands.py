"""Commands run as a user runs them: a fresh interpreter through `subprocess`.

Each test keeps the command line, bound and ceiling of a check that
`.github/workflows/tests.yml` used to run inline, so that the suite runs it
too: every child runs under `timeout 120` with `-W error::RuntimeWarning`.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


# Peak RSS starts at the parent's: exec records the peak of the image it
# replaces, so a child of the pytest process reads at least pytest's own peak.
# A small interpreter starts each command instead and prints its one child's peak.
PEAK = """
import resource
import subprocess
import sys

code = subprocess.run(sys.argv[1:]).returncode
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
sys.exit(code)
"""


def python(*argv, env=None) -> float:
    """Run `timeout 120 python -W error::RuntimeWarning argv` on this checkout; exit 0 or fail.

    Returns the command's peak RSS in MB.
    """
    env = {**{key: val for key, val in os.environ.items() if key != "PBL_SEED"}, **(env or {}),
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", PEAK, "timeout", "120", sys.executable,
                           "-W", "error::RuntimeWarning", *map(str, argv)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return float(done.stdout.split()[-1])


def pblr(*argv, env=None) -> float:
    """`python -m pblr.cli argv`; the peak RSS in MB."""
    return python("-m", "pblr.cli", *argv, env=env)


def test_validate_over_several_trial_blocks(tmp_path):
    # at n = 20, d = 3 a trial holds 60 design entries, so blr.STACK_BUDGET stacks up
    # to 2,048 trials per fit: 5,000 trials span blocks of 2,048, 2,048 and 904
    pblr("validate", "--trials", 5000, "--mgf-m", 10000, "--out", tmp_path)
    families = json.loads((tmp_path / "coverage.json").read_text(encoding="utf-8"))["families"]
    assert len(families) == 3 and all(f["trials"] == 5000 for f in families), families


def scan_wins(path):
    """{degree: wins} of a fig_b_selection.csv."""
    rows = [line for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")][1:]
    return {int(degree): int(wins) for degree, wins in (row.split(",") for row in rows)}


def test_seed_scan_of_2000_seeds_selects_degree_1(tmp_path):
    # README's selection claim: degree 1 has the highest evidence at least 1,990
    # times, and degree 3 never does
    pblr("fig-b", "--seeds", 2000, "--out", tmp_path)
    wins = scan_wins(tmp_path / "fig_b_selection.csv")
    assert wins.get(1, 0) >= 1990 and 3 not in wins, wins


def test_seed_scan_of_20000_seeds_counts_every_seed(tmp_path):
    # 20 stacked blocks of blr.STACK_BUDGET design entries (1,024 seeds at the
    # defaults) through the console path
    pblr("fig-b", "--seeds", 20000, "--out", tmp_path)
    wins = scan_wins(tmp_path / "fig_b_selection.csv")
    assert sum(wins.values()) == 20000, wins


@pytest.mark.parametrize("command", ["validate", "fig-a", "fig-b"])
def test_command_at_its_defaults(tmp_path, command):
    # validate exits 0 only if every bound family's violation rate is inside its
    # band and every MGF point is dominated by the sub-gamma envelope
    pblr(command, "--out", tmp_path)


@pytest.mark.parametrize("argv, ceiling_mb", [
    # the coverage study's blocks are sized in design entries too: at n = 20,000 a
    # block holds 2 trials (one 256-trial stack peaked at 1,080 MB)
    (["-c", "from pblr import experiments as exp; "
            "print(exp.run_coverage(trials=256, n=20_000)['families'])"], 150),
    # the empirical cropped risk walks fig-c's 1e6 examples in blocks, so only the
    # 160 MB sample grows with n (385 MB when the risk took them in one pass)
    (["-m", "pblr.cli", "fig-c"], 300),
    # a block's design entries, not its seed count, bound the scan: at n = 20,000
    # each block holds one seed, near a single `fig-b --n 20000`
    (["-m", "pblr.cli", "fig-b", "--seeds", "256", "--n", "20000"], 150),
], ids=["coverage-n20000", "fig-c", "scan-n20000"])
def test_memory_stays_below_its_ceiling(tmp_path, argv, ceiling_mb):
    out = ["--out", tmp_path] if argv[0] == "-m" else []
    peak_mb = python(*argv, *out)
    assert peak_mb < ceiling_mb, peak_mb


def test_fig_c_crops_write_finite_values(tmp_path):
    # At `--crop 3 5` the loss at r = 0 lies below a, so both crop edges take Phi
    # and phi. The 1e-13-wide crop holds c0 = 0.5 ln(20 pi), and rounding once put
    # the cropped empirical risk just outside it.
    for name, argv in {"crop-3-5": ["--crop", "3", "5"], "crop-narrow": [
            "--sigma2", "10", "--crop", "2.0702310797116956", "2.0702310797117955",
            "--n-grid", "10", "1000"]}.items():
        pblr("fig-c", *argv, "--out", tmp_path / name)
        rows = [line for line in (tmp_path / name / "fig_c.csv").read_text().splitlines()
                if not line.startswith("#")][1:]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row.split(",")), name


NO_SCIPY = """
import sys

sys.modules["scipy"] = None  # any import of scipy now fails
from pblr.cli import main

assert main(["fig-c", "--n-grid", "10", "1000", "--out", sys.argv[1]]) == 0
assert main(["validate", "--trials", "20", "--mgf-m", "10000", "--out", sys.argv[1]]) == 0
"""


def test_fig_c_and_validate_run_without_scipy(tmp_path):
    # scipy is only the tests' and the benchmark's reference; these are the
    # commands that take the normal CDF
    python("-c", NO_SCIPY, tmp_path)


# Five sine commands and the two linear ones, which draw through
# tasks.gen_linear_stack. The scan from seed 4294967000 is one block
# (rng.streams) of seeds of one and of two 32-bit words.
REPEATED = {"fig-a": ["fig-a"], "fig-b-3-1": ["fig-b", "--degrees", "3", "1"],
            "fig-b": ["fig-b"], "scan": ["fig-b", "--seeds", "2000"],
            "scan-wide": ["fig-b", "--seeds", "300", "--seed", "4294967000"],
            "fig-c": ["fig-c", "--n-grid", "10", "1000"],
            "validate": ["validate", "--trials", "300", "--mgf-m", "10000"]}
IN_PROCESS = """
import json
import os
import sys

from pblr.cli import main

for run in ("1", "2"):
    for name, argv in json.loads(sys.argv[2]).items():
        assert main([*argv, "--out", f"{sys.argv[1]}/{run}/{name}"]) == 0, argv
os.environ["PBL_SEED"] = "7"
assert main(["fig-b", "--out", f"{sys.argv[1]}/env/fig-b"]) == 0
"""


def test_repeated_in_process_calls_match_fresh_processes(tmp_path):
    # `pblr.cli.main` keeps one parser per process, so a second call must not see
    # the first one's flags or seed: every file of both in-process rounds equals,
    # byte for byte, the file of the same command run in a fresh process. A last
    # in-process fig-b takes its seed from PBL_SEED, set in that process.
    python("-c", IN_PROCESS, tmp_path, json.dumps(REPEATED))
    for name, argv in REPEATED.items():
        fresh = tmp_path / "fresh" / name
        pblr(*argv, "--out", fresh)
        for run in ("1", "2"):
            assert sorted(os.listdir(tmp_path / run / name)) == sorted(os.listdir(fresh)), name
            for file in os.listdir(fresh):
                assert (tmp_path / run / name / file).read_bytes() == \
                    (fresh / file).read_bytes(), (run, name, file)
    pblr("fig-b", "--out", tmp_path / "fresh" / "env", env={"PBL_SEED": "7"})
    in_process = (tmp_path / "env" / "fig-b" / "fig_b.csv").read_bytes()
    assert b"\n# seed = 7\n" in in_process
    assert in_process == (tmp_path / "fresh" / "env" / "fig_b.csv").read_bytes()
