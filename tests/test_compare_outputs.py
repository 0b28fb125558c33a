"""The byte gate, `scripts/compare_outputs.py`, on fixed files and a fixed CHANGES.md diff.

The script is loaded by its path. Each test swaps its `export`, `run` and
`recorded` for stubs, so no git command and no pblr command runs: the base
tree writes `old`, the working tree `new`, and CHANGES.md adds `added`.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
FIG_A = "# seed: 1\nx,mean\n0.0,1.0\n0.5,2.0\n"


def load():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def gate(capsys, old, new, added=()):
    """(exit status, stdout) of the script on one command line whose trees write old and new."""
    script = load()

    def run(tree, argv, out):
        out.mkdir(parents=True)
        for name, text in (new if tree == script.ROOT else old).items():
            (out / name).write_text(text, encoding="utf-8")

    script.COMMANDS = {"fig-a": ["fig-a"]}
    script.export = lambda rev, tree: tree.mkdir()
    script.run = run
    script.recorded = lambda rev: list(added)
    status = script.main(["HEAD"])
    return status, capsys.readouterr().out


def test_identical_outputs_pass(capsys):
    status, out = gate(capsys, {"fig_a.csv": FIG_A}, {"fig_a.csv": FIG_A})
    assert status == 0
    assert "  fig_a.csv: identical" in out.splitlines()


def test_an_unrecorded_move_fails_and_names_the_file(capsys):
    moved = FIG_A.replace("0.5,2.0", "0.5,2.5")
    status, out = gate(capsys, {"fig_a.csv": FIG_A}, {"fig_a.csv": moved},
                       added=["PR 9: fig_b.csv moves by rounding"])
    assert status == 1
    assert "fig_a.csv moved, and no line added to CHANGES.md names it" in out.splitlines()


def test_a_recorded_move_passes(capsys):
    moved = FIG_A.replace("0.5,2.0", "0.5,2.5")
    status, out = gate(capsys, {"fig_a.csv": FIG_A}, {"fig_a.csv": moved},
                       added=["PR 9: fig_a.csv's mean moves by 25% at x = 0.5"])
    assert status == 0
    assert "fig_a.csv moved; a line added to CHANGES.md names it" in out.splitlines()


@pytest.mark.parametrize("added, status", [((), 1), (["train.csv is no longer written"], 0)],
                         ids=["unrecorded", "recorded"])
def test_a_file_missing_from_one_tree_counts_as_moved(capsys, added, status):
    old = {"fig_a.csv": FIG_A, "train.csv": "x,y\n0.0,1.0\n"}
    code, out = gate(capsys, old, {"fig_a.csv": FIG_A}, added)
    assert code == status
    assert "  train.csv: missing from the new tree" in out.splitlines()
    assert "  fig_a.csv: identical" in out.splitlines()


def test_compare_reports_moved_cells_per_column(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(FIG_A, encoding="utf-8")
    new.write_text(FIG_A.replace("0.5,2.0", "0.5,2.5"), encoding="utf-8")
    assert load().compare(old, new) == [
        "1 of 5 cells moved",
        "    mean: largest relative change 0.25 (2.0 -> 2.5), largest absolute change 0.5"]


def test_compare_reports_a_changed_header_as_layout(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(FIG_A, encoding="utf-8")
    new.write_text(FIG_A.replace("x,mean", "x,sd"), encoding="utf-8")
    assert load().compare(old, new) == ["cell layout differs: 5 cells against 5"]
    assert load().compare(old, old) == ["identical"]


def test_cells_keys_csv_metadata_and_json_nesting(tmp_path):
    csv, doc = tmp_path / "fig_a.csv", tmp_path / "coverage.json"
    csv.write_text(FIG_A, encoding="utf-8")
    doc.write_text('{"families": {"nll": [0.1, 0.2]}, "trials": 5}', encoding="utf-8")
    cells = load().cells
    assert cells(csv) == {("#", 0): "# seed: 1", (0, "x"): "0.0", (0, "mean"): "1.0",
                          (1, "x"): "0.5", (1, "mean"): "2.0"}
    assert cells(doc) == {(("families", "nll"), 0): 0.1, (("families", "nll"), 1): 0.2,
                          ((), "trials"): 5}
