"""Record the exact output columns of pblr at the reference seed into reference.json.

    python3 perfbench/record_reference.py

Only exact columns are recorded: the fig-c evidence-based columns
(emp_gibbs_nll, bound_subgamma) over the fig_c_curve grid, the fig-b
evidence split and test risk, and the MGF envelope. None of them depends
on a Monte-Carlo sample count, so the calls use the smallest counts.
Rerun it only to move the reference to a new commit on purpose.
"""

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl


def main():
    cli = run.import_pblr()
    seed = str(wl.REFERENCE_SEED)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        out = Path(tmp)
        calls = [["fig-c", "--seed", seed, "--out", tmp, "--mc-weights", "2", "--mc-gen", "2",
                  "--n-grid", *map(str, wl.FIG_C_GRID)],
                 ["fig-b", "--seed", seed, "--out", tmp],
                 ["validate", "--seed", seed, "--out", tmp, "--trials", "1",
                  "--mc-weights", "2", "--mc-test", "2", "--mgf-m", "10000"]]
        for argv in calls:
            cli.main(argv)  # validate may exit 1 at these counts; only the envelope is used
        _, header, rows = wl.read_table(out / "fig_c.csv")
        fig_c = {str(int(n)): [e, b] for n, e, b in zip(
            wl.column(header, rows, "n"), wl.column(header, rows, "emp_gibbs_nll"),
            wl.column(header, rows, "bound_subgamma"))}
        _, _, fig_b = wl.read_table(out / "fig_b.csv")
        _, header, mgf = wl.read_table(out / "mgf.csv")
        reference = {"seed": wl.REFERENCE_SEED, "fig_c": fig_c, "fig_b": fig_b,
                     "mgf_envelope": wl.column(header, mgf, "envelope")}
    wl.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {wl.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
