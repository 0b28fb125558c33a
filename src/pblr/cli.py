"""Command-line entry point: fig-a, fig-b, fig-c, validate.

Each subcommand writes CSV/JSON files into --out; every file starts with
'#'-prefixed metadata lines (seed, parameters, tool version) so a rerun
with the same flags reproduces identical bytes. The exit code is nonzero
whenever an inline invariant check fails.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__, experiments as exp


def _seed_default() -> int:
    env = os.environ.get("PBL_SEED")
    if not env:
        return exp.DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"PBL_SEED must be an integer, got {env!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=_seed_default(),
                        help="master seed (falls back to PBL_SEED, then %(default)s)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (default: current directory)")


def _sine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma2", type=float, default=exp.SINE_SIGMA2)
    parser.add_argument("--sigma-pi2", type=float, default=exp.SINE_SIGMA_PI2)
    parser.add_argument("--degrees", type=int, nargs="+",
                        default=list(exp.DEFAULT_DEGREES))
    parser.add_argument("--n", type=int, default=exp.SINE_N)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pblr",
        description="PAC-Bayes bounds and exact evidence for Bayesian linear regression")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_a = sub.add_parser("fig-a", help="posterior-mean predictions per degree")
    _add_common(p_a)
    _sine_flags(p_a)
    p_a.add_argument("--grid-size", type=int, default=200)

    p_b = sub.add_parser("fig-b", help="evidence decomposition per degree")
    _add_common(p_b)
    _sine_flags(p_b)
    p_b.add_argument("--test-size", type=int, default=1000,
                     help="test points for test_risk (unused with --seeds K > 1)")
    p_b.add_argument("--seeds", type=int, default=1,
                     help="with K > 1, report the distribution of the highest-evidence "
                          "degree over K seeds instead of a single run")

    p_c = sub.add_parser("fig-c", help="bound values against sample size")
    _add_common(p_c)
    p_c.add_argument("--delta", type=float, default=exp.DEFAULT_DELTA)
    p_c.add_argument("--sigma2", type=float, default=exp.LINREG_SIGMA2)
    p_c.add_argument("--sigma-pi2", type=float, default=exp.LINREG_SIGMA_PI2)
    p_c.add_argument("--n-grid", type=int, nargs="+",
                     default=list(exp.DEFAULT_N_GRID))
    p_c.add_argument("--crop", type=float, nargs=2, metavar=("A", "B"),
                     default=list(exp.DEFAULT_CROP))

    p_v = sub.add_parser("validate", help="bound coverage study and MGF check")
    _add_common(p_v)
    p_v.add_argument("--delta", type=float, default=exp.DEFAULT_DELTA)
    p_v.add_argument("--trials", type=int, default=100)
    # Ignored: perfbench/workloads.py COVERAGE_TINY still passes it (ROADMAP item 3).
    p_v.add_argument("--mc-weights", type=int, help=argparse.SUPPRESS)
    p_v.add_argument("--mgf-m", type=int, default=exp.MGF_M)
    return parser


def _sine_meta(args) -> dict:
    return {"seed": args.seed, "n": args.n, "noise_var": exp.SINE_NOISE_VAR,
            "sigma2": args.sigma2, "sigma_pi2": args.sigma_pi2,
            "degrees": " ".join(map(str, args.degrees))}


def _require_positive(args, *flags, low=1) -> None:
    """Reject a count flag below `low` with an error naming the flag."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < low:
            raise ValueError(f"{flag} must be at least {low}, got {value}")


def cmd_fig_a(args) -> int:
    _require_positive(args, "--n", "--grid-size")
    dataset, rows = exp.run_fig_a(seed=args.seed, n=args.n, sigma2=args.sigma2,
                                  sigma_pi2=args.sigma_pi2, degrees=args.degrees,
                                  grid_size=args.grid_size)
    out = args.out
    exp.write_csv(out / "fig_a.csv", ("degree", "x", "mean_prediction"), rows,
                  {**_sine_meta(args), "grid_size": args.grid_size})
    exp.write_csv(out / "train.csv", ("x_0", "y"),
                  zip(dataset.raw_inputs, dataset.labels), _sine_meta(args))
    print(f"wrote {out / 'fig_a.csv'} and {out / 'train.csv'}")
    return 0


def cmd_fig_b(args) -> int:
    _require_positive(args, "--n", "--seeds", "--test-size")
    out = args.out
    if args.seeds > 1:
        wins: dict[int, int] = {}
        for k in range(args.seeds):  # selection needs only the evidence: no test set
            family = exp.polynomial_family(seed=args.seed + k, n=args.n,
                                           sigma2=args.sigma2, sigma_pi2=args.sigma_pi2,
                                           degrees=args.degrees)
            best = min(family.models, key=lambda m: m.evidence.neg_log_evidence).degree
            wins[best] = wins.get(best, 0) + 1
        table = sorted(wins.items())
        exp.write_csv(out / "fig_b_selection.csv", ("degree", "wins"), table,
                      {**_sine_meta(args), "seeds": args.seeds})
        print(f"wrote {out / 'fig_b_selection.csv'}")
        return 0
    rows = exp.run_fig_b(seed=args.seed, n=args.n, sigma2=args.sigma2,
                         sigma_pi2=args.sigma_pi2, degrees=args.degrees,
                         test_size=args.test_size)
    exp.write_csv(out / "fig_b.csv",
                  ("degree", "neg_log_evidence", "gibbs_emp_risk_total", "kl",
                   "test_risk"),
                  rows, {**_sine_meta(args), "test_size": args.test_size})
    print(f"wrote {out / 'fig_b.csv'}")
    return 0


def cmd_fig_c(args) -> int:
    rows, meta = exp.run_fig_c(seed=args.seed, n_grid=args.n_grid,
                               delta=args.delta, sigma2=args.sigma2,
                               sigma_pi2=args.sigma_pi2,
                               crop_interval=tuple(args.crop))
    exp.write_csv(args.out / "fig_c.csv", exp.FIG_C_COLUMNS, rows, meta)
    print(f"wrote {args.out / 'fig_c.csv'}")
    return 0


def cmd_validate(args) -> int:
    _require_positive(args, "--trials")
    _require_positive(args, "--mgf-m", low=10_000)
    coverage, mgf, ok = exp.run_validate(seed=args.seed, trials=args.trials,
                                         delta=args.delta, mgf_m=args.mgf_m)
    out = args.out
    with open(out / "coverage.json", "w", encoding="utf-8") as fh:
        json.dump(coverage.as_dict(), fh, indent=2)
        fh.write("\n")
    exp.write_csv(out / "mgf.csv", ("lambda", "psi_hat", "envelope", "band"),
                  [(row.lam, row.psi_hat, row.envelope, row.band) for row in mgf.rows],
                  {"seed": args.seed, "m": mgf.m, "loss": mgf.loss_kind})
    for fam in coverage.families:
        print(f"coverage {fam.family}: {fam.violations}/{fam.trials} violations")
    for row in mgf.rows:
        status = "ok" if row.dominated else "EXCEEDED"
        print(f"mgf lambda={row.lam}: psi_hat={row.psi_hat:.5f} "
              f"envelope={row.envelope:.5f} [{status}]")
    print(f"wrote {out / 'coverage.json'} and {out / 'mgf.csv'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    handlers = {"fig-a": cmd_fig_a, "fig-b": cmd_fig_b, "fig-c": cmd_fig_c,
                "validate": cmd_validate}
    try:
        args = build_parser().parse_args(argv)  # reads PBL_SEED
        _require_positive(args, "--seed", low=0)
        args.out.mkdir(parents=True, exist_ok=True)
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
