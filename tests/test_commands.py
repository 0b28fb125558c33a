"""Commands run as a user runs them: a fresh interpreter through `subprocess`.

Each test keeps the command line, bound and ceiling of a check that
`.github/workflows/tests.yml` used to run inline, so that the suite runs it too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def pblr(*argv):
    """Run `python -W error::RuntimeWarning -m pblr.cli argv` on this checkout; exit 0 or fail."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "pblr.cli",
                           *map(str, argv)], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr


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
