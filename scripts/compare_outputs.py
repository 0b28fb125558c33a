"""Compare the outputs of pblr's canonical command lines between a revision and the working tree.

    python scripts/compare_outputs.py [REV]      (REV defaults to HEAD)

The revision is exported with `git archive` into a temporary directory (no
worktree is registered, so an interrupted run leaves nothing behind in .git).
Each command in COMMANDS runs once per tree, in a fresh interpreter with one
BLAS thread, and each file it writes is compared byte for byte. A file that
differs is compared cell by cell: the script prints how many cells moved and,
per column, the largest relative change with its old and new values and the
largest absolute change. Each file gets one line that starts with two spaces
and its name; the detail lines under it start with four. It exits 1 when any
file differs or is missing from one tree, else 0. A command that exits
nonzero in either tree stops the script with its stderr and exit status 2, so
a failure shared by both trees is not read as agreement; so does a revision
that `git archive` cannot export.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NARROW_CROP = ["--sigma2", "10", "--crop", "2.0702310797116956", "2.0702310797117955",
               "--n-grid", "10", "1000"]
COMMANDS = {
    "fig-a": ["fig-a"],
    "fig-b": ["fig-b"],
    "fig-c": ["fig-c"],
    "validate": ["validate"],
    "fig-b-3-1": ["fig-b", "--degrees", "3", "1"],
    "scan-200": ["fig-b", "--seeds", "200"],
    "scan-2000": ["fig-b", "--seeds", "2000"],
    "scan-20000": ["fig-b", "--seeds", "20000"],
    "scan-wide": ["fig-b", "--seeds", "300", "--seed", "4294967000"],
    "scan-top": ["fig-b", "--seeds", "3", "--seed", "18446744073709551615"],
    "fig-c-crop-3-5": ["fig-c", "--crop", "3", "5"],
    "fig-c-crop-wide": ["fig-c", "--crop", "-1e9", "1e9"],
    "fig-c-crop-narrow": ["fig-c", *NARROW_CROP],
    "validate-5000": ["validate", "--trials", "5000", "--mgf-m", "10000"],
}
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMAND_FAILED = 2  # the exit status when pblr fails in either tree; 1 means outputs differ


def run(tree: Path, argv, out: Path) -> None:
    """Run pblr argv in tree, writing into out; exits the script unless pblr exits 0."""
    env = {**os.environ, **ENV, "PYTHONPATH": str(tree / "src")}
    env.pop("PBL_SEED", None)
    done = subprocess.run([sys.executable, "-m", "pblr.cli", *argv, "--out", str(out)],
                          cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        print(f"{tree}: pblr {' '.join(argv)} exited {done.returncode}:\n{done.stderr}",
              file=sys.stderr)
        sys.exit(COMMAND_FAILED)


def cells(path: Path) -> dict:
    """{(row, column): value} of a CSV (metadata lines included) or a JSON file."""
    if path.suffix == ".json":
        flat = {}

        def walk(node, key):
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(v, (*key, k))
            elif isinstance(node, list):
                for i, v in enumerate(node):
                    walk(v, (*key, i))
            else:
                flat[(key[:-1], key[-1] if key else "")] = node
        walk(json.loads(path.read_text(encoding="utf-8")), ())
        return flat
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = [line for line in lines if line.startswith("#")]
    header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
    table = {(i, name): value for i, row in enumerate(rows) for name, value in zip(header, row)}
    return {**table, **{("#", i): line for i, line in enumerate(meta)}}


def changes(old, new) -> tuple:
    """(relative, absolute) change from old to new; inf for a cell that is not a number."""
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return math.inf, math.inf
    if a == b:
        return 0.0, 0.0
    return (abs(b - a) / abs(a) if a != 0 else math.inf), abs(b - a)


def compare(old: Path, new: Path) -> list:
    """Lines describing how new differs from old; ['identical'] when the bytes agree."""
    if old.read_bytes() == new.read_bytes():
        return ["identical"]
    a, b = cells(old), cells(new)
    if a.keys() != b.keys():
        return [f"cell layout differs: {len(a)} cells against {len(b)}"]
    moved = [key for key in a if a[key] != b[key]]
    by_rel, by_abs = {}, {}  # column -> (relative change, old, new); -> absolute change
    for key in moved:
        rel, diff = changes(a[key], b[key])
        column = key[1]
        if rel > by_rel.get(column, (-1.0,))[0]:
            by_rel[column] = (rel, a[key], b[key])
        by_abs[column] = max(by_abs.get(column, 0.0), diff)
    lines = [f"{len(moved)} of {len(a)} cells moved"]
    lines += [f"    {column}: largest relative change {rel:.3g} ({old_v} -> {new_v}), "
              f"largest absolute change {by_abs[column]:.3g}"
              for column, (rel, old_v, new_v) in by_rel.items()]
    return lines


def main(argv) -> int:
    rev = argv[0] if argv else "HEAD"
    differs = False
    with tempfile.TemporaryDirectory(prefix="pblr-compare-") as tmp:
        tmp = Path(tmp)
        base = tmp / "tree"
        base.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True)
        if archive.returncode != 0:
            print(archive.stderr.decode(), file=sys.stderr)
            return COMMAND_FAILED
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        for name, command in COMMANDS.items():
            outs = {label: tmp / label / name for label in ("old", "new")}
            for label, tree in (("old", base), ("new", ROOT)):
                run(tree, command, outs[label])
            print(f"{name}: pblr {' '.join(command)}")
            files = {label: {p.name for p in out.iterdir()} for label, out in outs.items()}
            for file in sorted(files["old"] | files["new"]):
                missing = [label for label in outs if file not in files[label]]
                lines = ([f"missing from the {missing[0]} tree"] if missing
                         else compare(outs["old"] / file, outs["new"] / file))
                differs |= lines != ["identical"]
                print(f"  {file}: {lines[0]}", *lines[1:], sep="\n")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
