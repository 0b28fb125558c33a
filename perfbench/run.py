"""pblr benchmark: drive `pblr.cli.main` in-process and report end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

One process runs one workload as a single closed-loop client: a round is
the workload's CLI calls, made one at a time, and a new round starts only
while it is expected to end within --seconds (at least one round always
runs). A tiny warm-up round comes first, so lazy imports inside numpy and
scipy are not timed; the import of `pblr.cli` itself is `setup_s`.
The speed probe (probe.py) runs before the first round and after each one,
and every time is reported rescaled to the probe's reference speed, since
the speed of a shared host's cores moves with its other tenants.

--trace 0 prints the end-to-end metrics. --trace 1 traces every round and
prints the per-layer metrics; see tracer.py.
After timing, the outputs of the last round are checked against the
independent oracle (oracle.py) and the reference recorded from the commit
that defined the benchmark (reference.json). The last line of standard
output is the result JSON; a full record, with the environment, goes to
.perfbench_out/records/.

Only process-local controls are used: BLAS/OpenMP thread variables (one
thread) for this process and its children, and the CPU affinity of this
process (one CPU, so the probe and the rounds run on the same core). No
caches are dropped, nothing is pinned through cgroups, and no machine
setting is changed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BENCHMARK = ROOT / "BENCHMARK.json"

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: each workload is a single client, and on two cores the
# waiting threads of a two-thread OpenBLAS made coverage 20% slower and
# doubled the run-to-run spread of sine_scan.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
CONTROLS = ("process-local only: BLAS/OpenMP thread variables set for this process "
            "and its children, and this process's CPU affinity (one CPU); no cache "
            "drops, no cgroup pinning, no machine settings")

END_TO_END = {"wall_ref_s": "s", "ops_per_ref_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
              "ops_ok_frac": "frac", "checks_ok_frac": "frac"}
_FUNCS = ("blr.fit_posterior", "blr.evidence_decomposition", "losses.empirical_gibbs_risk_mc",
          "mc.gen_risk.cropped", "mc.gen_risk.nll", "mc.sample_posterior",
          "subgamma.empirical_mgf_check", "tasks.gen")
PER_LAYER = {
    **{f"{layer}.self.s": "s" for layer in ("cli", "experiments", "tasks", "blr", "losses",
                                             "mc", "subgamma", "bounds")},
    **{f"{fn}.{kind}": unit for fn in _FUNCS for kind, unit in (("calls", "count"), ("s", "s"))},
    "cli.calls": "count",
    "experiments.write.s": "s", "experiments.write.bytes": "B",
    "tasks.gen.rows": "count", "tasks.design.s": "s",
    "blr.fits_per_evidence": "ratio",
    "losses.loss_evals": "count", "mc.gen_risk.cropped.loss_evals": "count",
    "mc.samples": "count", "mc.run_validity_study.s": "s",
    "subgamma.mgf.draws": "count", "subgamma.mgf.resamples": "count",
    "bounds.calls": "count", "bounds.s": "s",
    **{f"{layer}.errors": "count" for layer in ("cli", "experiments", "tasks", "blr", "losses",
                                                 "mc", "subgamma", "bounds")},
    "trace.overhead_s": "s", "trace.spans": "count",
}

SETUP_CODE = ("import time; t = time.perf_counter(); import pblr.cli; "
              "print(time.perf_counter() - t)")


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    return env


def import_pblr():
    """Import pblr from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import pblr.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import pblr from {SRC}: {exc}")
    if Path(pblr.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: pblr imported from {pblr.cli.__file__}, not {SRC}")
    return pblr.cli


def rescale(times, probes, ref_s):
    """Each time at the probe's reference speed, from the probes taken before and after it."""
    return [t * ref_s / ((before + after) / 2.0)
            for t, before, after in zip(times, probes, probes[1:])]


def measure_setup(repeats, probe):
    """Median rescaled import time of pblr.cli over fresh interpreters, after one warm-up."""
    times, probes = [], []
    for i in range(repeats + 1):
        if i:
            probes.append(probe())
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    probes.append(probe())
    scaled = rescale(times[1:], probes, probe.ref_s)
    return statistics.median(scaled), {"import_s": times[1:], "probe_s": probes}


def run_round(cli, calls):
    """Make each CLI call in turn; return (wall seconds, exit codes)."""
    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    for argv, _ in calls:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:  # argparse rejected the arguments
                codes.append(exc.code if isinstance(exc.code, int) and exc.code else 2)
            except Exception:  # a crash is a failed op, not a crashed benchmark
                codes.append(-1)
    return time.perf_counter() - start, codes


def output_digest(out):
    digest = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        size += len(data)
        digest.update(path.name.encode() + b"\0" + data)
    return digest.hexdigest(), size


def run_loop(cli, calls, out, seconds, probe, tracer=None):
    """Closed loop of rounds within the time budget, at least one, with a speed probe
    before the first round and after each."""
    walls, codes, digests, probes = [], [], [], []
    started = time.perf_counter()
    probes.append(probe())
    while not walls or (time.perf_counter() - started
                        + statistics.median(walls) + probes[-1] <= seconds):
        if tracer is None:
            wall, round_codes = run_round(cli, calls)
        else:
            with tracer:
                wall, round_codes = run_round(cli, calls)
        probes.append(probe())
        walls.append(wall)
        codes.append(round_codes)
        digests.append(output_digest(out))
    return walls, probes, codes, digests


def blas_backend():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(seed):
    import numpy
    import scipy
    sha = None
    if (ROOT / ".git").exists():  # a plain source checkout has no SHA to report
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "pblr").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha, "src_sha256": src_digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_backend(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": NPROC, "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "machine": platform.machine(),
        "seed": seed, "controls": CONTROLS,
    }


def bench(args):
    cli = import_pblr()
    import workloads
    from probe import Probe
    from tracer import Tracer

    workload = {**workloads.WORKLOADS, workloads.ANCHOR.name: workloads.ANCHOR}.get(args.workload)
    if workload is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out = OUT / "runs" / tag
    warm = OUT / "runs" / f"{tag}-warmup"
    out.mkdir(parents=True, exist_ok=True)
    warm.mkdir(parents=True, exist_ok=True)
    try:
        calls = workload.calls(args.seed, out, args.tiny)
        ops_per_round = sum(ops for _, ops in calls)
        run_round(cli, workload.calls(args.seed, warm, True))
        probe = Probe(workload.probe)
        probe()  # warm-up

        record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "tiny": args.tiny, "probe_parts": list(probe.parts),
                  "calls": [[os.path.relpath(arg, ROOT) if arg == str(out) else arg
                             for arg in argv] for argv, _ in calls]}
        if args.trace:
            tracer = Tracer()
            walls, probes, codes, digests = run_loop(cli, calls, out, args.seconds, probe,
                                                     tracer)
            speed = probe.ref_s / statistics.median(probes)
            metrics = {name: value * speed if PER_LAYER.get(name) == "s" else value
                       for name, value in tracer.metrics(len(walls)).items()}
            record["probe_ref_over_median"] = speed
            metrics["experiments.write.bytes"] = digests[-1][1]
            OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
            tracer.dump(OUT / "spans" / f"{tag}.jsonl")
        else:
            walls, probes, codes, digests = run_loop(cli, calls, out, args.seconds, probe)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # Importing is interpreter work whatever the workload: probe with every part.
            setup_s, record["setup_samples"] = measure_setup(1 if args.tiny else SETUP_REPEATS,
                                                             Probe())

        checks = workloads.Checks()
        check_start = time.perf_counter()
        workload.check(checks, args.seed, out, args.tiny)
        record["check_s"] = time.perf_counter() - check_start
        checks.add("outputs.reproducible", len({d for d, _ in digests}) == 1)
        checks.add("exit_codes", all(code == 0 for rnd in codes for code in rnd))
        attempted = ops_per_round * len(codes)
        failed = sum(ops for rnd in codes for i, (code, (_, ops)) in enumerate(zip(rnd, calls))
                     if code != 0 or i in checks.bad_calls)
        checks_failed = checks.failed
        if not args.trace:
            wall_ref_s = statistics.median(rescale(walls, probes, probe.ref_s))
            metrics = {"wall_ref_s": wall_ref_s, "ops_per_ref_s": ops_per_round / wall_ref_s,
                       "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                       "ops_ok_frac": 1.0 - failed / attempted,
                       "checks_ok_frac": 1.0 - len(checks_failed) / len(checks.results)}
        units = PER_LAYER if args.trace else END_TO_END
        result = {"correct": not checks_failed, "attempted": attempted, "failed": failed,
                  "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                              for name, unit in units.items()}}
        record.update(round_s=walls, probe_s=probes, raw_wall_s=statistics.median(walls),
                      exit_codes=codes, ops_per_round=ops_per_round,
                      checks=checks.results, checks_failed=checks_failed,
                      ops_failed_frac=failed / attempted, env=environment(args.seed),
                      result=result)
        record_path = OUT / "records" / f"{tag}.json"
        record_path.parent.mkdir(parents=True, exist_ok=True)
        record_path.write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(warm, ignore_errors=True)

    print("env " + json.dumps(record["env"]))
    print(f"record {record_path}")
    print(f"summary workload={workload.name} seed={args.seed} rounds={len(walls)} "
          f"raw_wall_s={statistics.median(walls):.6g} probe_s={statistics.median(probes):.6g} "
          f"checks_failed={len(checks_failed)} ops_failed_frac={failed / attempted} "
          + " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in result["metrics"].items()))
    if checks_failed:
        print("failed checks: " + ", ".join(checks_failed))
    print(json.dumps(result))
    return 0


def smoke():
    """Run every workload at tiny sizes, traced and untraced; compare names and units."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for workload in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                good = (proc.returncode == 0 and units == expected[trace] and result["correct"]
                        and result["failed"] == 0)
            except (IndexError, ValueError, KeyError, TypeError):
                good = False
            print(f"smoke {workload['name']} trace={trace}: {'ok' if good else 'FAILED'}")
            print("  " + next((line for line in lines if line.startswith("summary ")), ""))
            if not good:
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
            ok &= good
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for --smoke")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and check metric names")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = BLAS_THREADS
    # One CPU for this process and the interpreters it starts, so that the
    # speed probe measures the core the rounds run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
