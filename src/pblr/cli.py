"""Command-line entry point: fig-a, fig-b, fig-c, validate.

Each subcommand writes CSV/JSON files into --out; every file starts with
'#'-prefixed metadata lines (seed, parameters, tool version) so a rerun
with the same flags reproduces identical bytes. The exit code is nonzero
whenever an inline invariant check fails. A command that prints an `error:`
line writes nothing, not even --out, which the first file written creates.
Each flag's range is checked by its own parser action as the command line is
parsed (-inf and -nan parse as values), so an out-of-range value fails even
if a later copy of the flag would override it. `main` builds its parser on
its first call and reuses it for every later call in the process; its list
defaults are tuples, so no parse sees another's values. An omitted --seed is
taken from PBL_SEED as it is at that call, and PBL_SEED is read only then.
"""

import argparse
import collections
import functools
import itertools
import json
import math
import os
import re
import sys
from pathlib import Path

from . import __version__, experiments as exp
from .subgamma import dominated


def _seed_default() -> int:
    env = os.environ.get("PBL_SEED")
    if not env:
        return exp.DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"PBL_SEED must be an integer, got {env!r}") from None


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a malformed command line: main prints one line, exits 1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # every negative spelling float() takes; argparse's own reads -1e3 and -inf as options
        self._negative_number_matcher = re.compile(r"^-(\.?\d|(inf|infinity|nan)$)", re.I)

    def error(self, message):
        raise ValueError(message)


def _checked(test, rule):
    """An action that stores a flag's value, or list, if `test` holds for each; else ValueError."""
    class Checked(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            for v in values if isinstance(values, list) else [values]:
                if not test(v):
                    raise ValueError(f"{self.option_strings[0]} {rule}, got {v}")
            setattr(namespace, self.dest, values)
    return Checked


def _at_least(low):
    return _checked(lambda v: v >= low, f"must be at least {low}")


_DELTA = _checked(lambda v: 0 < v <= 1, "must lie in (0, 1]")
_VARIANCE = _checked(lambda v: v > 0 and math.isfinite(v), "must be positive and finite")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, action=_at_least(0),
                        help=f"master seed (falls back to PBL_SEED, then {exp.DEFAULT_SEED})")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (default: current directory)")


def _sine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma2", type=float, action=_VARIANCE, default=exp.SINE_SIGMA2)
    parser.add_argument("--sigma-pi2", type=float, action=_VARIANCE, default=exp.SINE_SIGMA_PI2)
    parser.add_argument("--degrees", type=int, nargs="+", action=_at_least(1),
                        default=exp.DEFAULT_DEGREES)
    parser.add_argument("--n", type=int, action=_at_least(1), default=exp.SINE_N)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pblr",
        description="PAC-Bayes bounds and exact evidence for Bayesian linear regression")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_a = sub.add_parser("fig-a", help="posterior-mean predictions per degree")
    _add_common(p_a)
    _sine_flags(p_a)
    p_a.add_argument("--grid-size", type=int, action=_at_least(1), default=exp.FIG_A_GRID_SIZE)

    p_b = sub.add_parser("fig-b", help="evidence decomposition per degree")
    _add_common(p_b)
    _sine_flags(p_b)
    p_b.add_argument("--test-size", type=int, action=_at_least(1), default=exp.FIG_B_TEST_SIZE,
                     help="test points for test_risk (unused with --seeds K > 1)")
    p_b.add_argument("--seeds", type=int, action=_at_least(1), default=1,
                     help="with K > 1, report the distribution of the highest-evidence "
                          "degree over K seeds instead of a single run")

    p_c = sub.add_parser("fig-c", help="bound values against sample size")
    _add_common(p_c)
    p_c.add_argument("--delta", type=float, action=_DELTA, default=exp.DEFAULT_DELTA)
    p_c.add_argument("--sigma2", type=float, action=_VARIANCE, default=exp.LINREG_SIGMA2)
    p_c.add_argument("--sigma-pi2", type=float, action=_VARIANCE, default=exp.LINREG_SIGMA_PI2)
    p_c.add_argument("--n-grid", type=int, nargs="+", action=_at_least(1),
                     default=exp.DEFAULT_N_GRID)
    p_c.add_argument("--crop", type=float, nargs=2, metavar=("A", "B"),
                     default=exp.DEFAULT_CROP)

    p_v = sub.add_parser("validate", help="bound coverage study and MGF check")
    _add_common(p_v)
    p_v.add_argument("--delta", type=float, action=_DELTA, default=exp.DEFAULT_DELTA)
    p_v.add_argument("--trials", type=int, action=_at_least(1), default=exp.COVERAGE_TRIALS)
    # Ignored: perfbench/workloads.py COVERAGE_TINY still passes it (ROADMAP item 1).
    p_v.add_argument("--mc-weights", type=int, help=argparse.SUPPRESS)
    p_v.add_argument("--mgf-m", type=int, action=_at_least(10_000), default=exp.MGF_M)
    return parser


def _sine_meta(args) -> dict:
    return {"seed": args.seed, "n": args.n, "noise_var": exp.SINE_NOISE_VAR,
            "sigma2": args.sigma2, "sigma_pi2": args.sigma_pi2,
            "degrees": " ".join(map(str, args.degrees))}


def cmd_fig_a(args) -> int:
    """fig_a.csv and train.csv; each grid point and degree is formatted once, as by write_csv."""
    dataset, degrees, grid, preds = exp.run_fig_a(
        seed=args.seed, n=args.n, sigma2=args.sigma2, sigma_pi2=args.sigma_pi2,
        degrees=args.degrees, grid_size=args.grid_size)
    xs = list(map(float.__repr__, grid.tolist()))
    rows = [row for degree, pred in zip(map(str, degrees), preds.tolist())
            for row in zip(itertools.repeat(degree), xs, pred)]
    out = args.out
    exp.write_csv(out / "fig_a.csv", ("degree", "x", "mean_prediction"), rows,
                  {**_sine_meta(args), "grid_size": args.grid_size})
    exp.write_csv(out / "train.csv", ("x_0", "y"),
                  zip(dataset.raw_inputs.tolist(), dataset.labels.tolist()), _sine_meta(args))
    print(f"wrote {out / 'fig_a.csv'} and {out / 'train.csv'}")
    return 0


def cmd_fig_b(args) -> int:
    out = args.out
    if args.seeds > 1:  # selection needs only the evidence: no test set
        wins = collections.Counter(exp.selected_degrees(
            seed=args.seed, seeds=args.seeds, n=args.n, sigma2=args.sigma2,
            sigma_pi2=args.sigma_pi2, degrees=args.degrees).tolist())
        exp.write_csv(out / "fig_b_selection.csv", ("degree", "wins"), sorted(wins.items()),
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
    a, b = args.crop
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"--crop needs finite A < B, got {a} {b}")
    rows, meta = exp.run_fig_c(seed=args.seed, n_grid=args.n_grid,
                               delta=args.delta, sigma2=args.sigma2,
                               sigma_pi2=args.sigma_pi2,
                               crop_interval=tuple(args.crop))
    exp.write_csv(args.out / "fig_c.csv", exp.FIG_C_COLUMNS, rows, meta)
    print(f"wrote {args.out / 'fig_c.csv'}")
    return 0


def cmd_validate(args) -> int:
    coverage, mgf, ok = exp.run_validate(seed=args.seed, trials=args.trials,
                                         delta=args.delta, mgf_m=args.mgf_m)
    out = args.out
    exp.write_csv(out / "mgf.csv", ("lambda", "psi_hat", "envelope", "band"), mgf,
                  {"seed": args.seed, "m": args.mgf_m, "loss": "squared"})
    with open(out / "coverage.json", "w", encoding="utf-8") as fh:  # write_csv made out
        json.dump(coverage, fh, indent=2)
        fh.write("\n")
    for fam in coverage["families"]:
        print(f"coverage {fam['family']}: {fam['violations']}/{fam['trials']} violations")
    for row in mgf:
        lam, psi_hat, envelope, _ = row
        status = "ok" if dominated(row) else "EXCEEDED"
        print(f"mgf lambda={lam}: psi_hat={psi_hat:.5f} envelope={envelope:.5f} [{status}]")
    print(f"wrote {out / 'coverage.json'} and {out / 'mgf.csv'}")
    return 0 if ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in this process, built on the first."""
    return build_parser()


def main(argv=None) -> int:
    handlers = {"fig-a": cmd_fig_a, "fig-b": cmd_fig_b, "fig-c": cmd_fig_c,
                "validate": cmd_validate}
    try:
        args = _parser().parse_args(argv)
        if args.seed is None:
            args.seed = _seed_default()
            if args.seed < 0:
                raise ValueError(f"--seed must be at least 0, got {args.seed}")
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
