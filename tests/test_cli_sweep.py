"""A seeded sweep of random command lines through `cli.main`, in-process.

Every line exits 0 or 1 and no exception escapes `main`. An exit 1 prints
exactly one `error:` line and leaves no --out directory, except a `validate` that
wrote both its files and failed a bound or MGF check. Every number in every
file written is finite. pyproject.toml's filter turns a RuntimeWarning into an
error, so a numpy overflow on the way escapes `main` and fails the sweep. Sizes
are capped so that no run allocates much; the out-of-memory path has its own
tests. A new flag joins the sweep through FLAGS and COMMANDS.
"""

import json
import math
import random

from pblr.cli import main

LINES = 2_000
FLOATS = ("5e-324", "1e-300", "1e-12", "0", "-0", "-1", "0.1", "0.5", "1", "2", "10",
          "1e9", "1e150", "1e308", "-1e308", "nan", "inf", "-inf")


def _one(*pool):
    return lambda r: [r.choice(pool)]


def _some(*pool):
    return lambda r: r.choices(pool, k=r.randint(1, 2))


FLAGS = {
    "--seed": _one(-1, 0, 1, 7, 2**32, 2**64 - 1),
    "--sigma2": _one(*FLOATS),
    "--sigma-pi2": _one(*FLOATS),
    "--delta": _one(*FLOATS),
    "--crop": lambda r: r.choices(FLOATS, k=2),
    "--n": _one(-1, 0, 1, 2, 15, 50),
    "--degrees": _some(-1, 0, 1, 2, 3, 7, 14, 40),
    "--grid-size": _one(-1, 0, 1, 2, 30),
    "--test-size": _one(-1, 0, 1, 2, 1_000),
    "--seeds": _one(-1, 0, 1, 2, 50),
    "--n-grid": _some(-1, 0, 1, 10, 100, 1_000),
    "--trials": _one(-1, 0, 1, 2, 5),
    "--mgf-m": lambda r: [r.choice((100, r.randint(10_000, 20_000)))],
}
# (flags every line passes, flags a line passes at random); the first keep the
# defaults of fig-c's n grid, validate's trials and its MGF draws out of the sweep
COMMANDS = {
    "fig-a": ((), ("--seed", "--sigma2", "--sigma-pi2", "--n", "--degrees", "--grid-size")),
    "fig-b": ((), ("--seed", "--sigma2", "--sigma-pi2", "--n", "--degrees", "--test-size",
                   "--seeds")),
    "fig-c": (("--n-grid",), ("--seed", "--sigma2", "--sigma-pi2", "--delta", "--crop")),
    "validate": (("--trials", "--mgf-m"), ("--seed", "--delta")),
}


def command_line(r):
    # fig-c twice as often: its crop takes two floats, and its bounds overflow first
    command = r.choices(list(COMMANDS), weights=(1, 1, 2, 1))[0]
    always, maybe = COMMANDS[command]
    flags = [*always, *(flag for flag in maybe if r.random() < 0.5)]
    r.shuffle(flags)
    argv = [command]
    for flag in flags:
        argv += [flag, *("x" if r.random() < 0.01 else str(v) for v in FLAGS[flag](r))]
    return argv


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def check_finite(path):
    """Raise on a NaN or infinite number anywhere in a written CSV or JSON file."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        json.loads(text, parse_float=_finite, parse_constant=_finite)
        return
    for line in text.splitlines():
        cells = line[2:].partition(" = ")[2].split() if line.startswith("# ") else line.split(",")
        for cell in cells:
            try:
                float(cell)
            except ValueError:
                continue  # a name, not a number
            _finite(cell)


def test_random_command_lines_fail_closed(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PBL_SEED", raising=False)
    r = random.Random(20_161_605)
    failures = []
    for i in range(LINES):
        argv = command_line(r)
        out = tmp_path / str(i)
        try:
            code = main([*argv, "--out", str(out)])
            err = capsys.readouterr().err
            files = sorted(out.iterdir()) if out.exists() else []
            for path in files:
                check_finite(path)
            bound_failed = (argv[0] == "validate" and err == "" and
                            [p.name for p in files] == ["coverage.json", "mgf.csv"])
            assert code in (0, 1), f"exit {code}"
            if code == 1 and not bound_failed:
                lines = err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), err
                assert not out.exists(), files
        except Exception as exc:  # every escape is a finding, a RuntimeWarning included
            capsys.readouterr()
            failures.append(f"{' '.join(argv)}: {exc!r}")
    assert not failures, f"{len(failures)} of {LINES} lines: " + "\n".join(failures[:5])
