"""Write the committed baseline: every workload untraced and traced, plus the fig-c anchor.

    python3 perfbench/baseline.py

Each run is a separate `run.py` process with seed 1; the file collects their full
records (metrics, round times, checks, environment). The anchor is one
traced run of `pblr fig-c` at its defaults (n up to 1e6), which is not a
workload: it takes about two minutes per round and is run only here.
Takes about eight minutes on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1
OUT = HERE / "baseline" / "BENCH_2core.json"


def run(workload, seed, trace, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=900)
    record_line = next(line for line in proc.stdout.splitlines() if line.startswith("record "))
    return json.loads(Path(record_line.split(" ", 1)[1]).read_text(encoding="utf-8"))


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = [run(w["name"], SEED, trace, spec["run_seconds"])
            for w in spec["workloads"] for trace in (0, 1)]
    anchor = run("fig_c_default", SEED, 1, 0)
    baseline = {"label": "2core", "seed": SEED, "run_seconds": spec["run_seconds"],
                "runs": runs, "anchor_fig_c_default": anchor,
                "deviations": json.loads((HERE / "deviations.json").read_text(encoding="utf-8"))}
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
