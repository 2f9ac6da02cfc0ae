"""Command line harness: hlab <experiment> [options].

Writes the experiment's CSV table to stdout (or --out FILE) and a one
line summary to stderr.  Exit codes: 0 all rows pass, 1 some row fails,
2 configuration problem, 3 numerical failure (a quadrature that does not
converge, a kernel query outside its strip, an exhausted series budget),
reported as one line on stderr.  The flags set the dimension, kappa, R0,
the times, the seed and the output file; --fast picks the smaller grids.
Each report's grid sizes and pass gates are otherwise fixed, and a flag
the report does not read (experiments.READS) is refused with exit 2.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import CATALOG, READS, ConfigError, ExperimentConfig, run
from .kernels import BudgetExhausted, StripViolation
from .quadrature import QuadratureError


def _parse_times(text: str) -> tuple:
    try:
        vals = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError("cannot parse time list %r" % text) from None
    if not vals or any(v <= 0 for v in vals):
        raise ConfigError("time list must hold positive numbers")
    return vals


# the flag of each ExperimentConfig setting
_FLAGS = {"d": "--d", "kappa": "--kappa", "r0": "--R0", "t_values": "--t",
          "fast": "--fast", "seed": "--seed"}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hlab",
        description="Run a named verification experiment and emit CSV.")
    p.add_argument("experiment",
                   help="one of: " + ", ".join(sorted(CATALOG)))
    p.add_argument("--d", type=int, default=None, metavar="N")
    p.add_argument("--kappa", type=float, default=None, metavar="X")
    p.add_argument("--R0", type=float, default=None, dest="r0", metavar="X")
    p.add_argument("--t", type=str, default=None, metavar="a,b,c",
                   help="comma separated list of times")
    p.add_argument("--out", type=str, default=None, metavar="FILE")
    p.add_argument("--fast", action="store_true", default=None)
    p.add_argument("--seed", type=int, default=None, metavar="N")
    return p


def build_config(argv) -> ExperimentConfig:
    args = _build_parser().parse_args(argv)
    values = {
        "d": args.d, "kappa": args.kappa, "r0": args.r0,
        "t_values": _parse_times(args.t) if args.t is not None else None,
        "out": args.out, "fast": args.fast, "seed": args.seed,
    }
    settings = {k: v for k, v in values.items() if v is not None}
    reads = READS.get(args.experiment, _FLAGS)  # validate names the typo
    unread = [flag for k, flag in _FLAGS.items()
              if k in settings and k not in reads]
    if unread:
        raise ConfigError("%s does not read %s"
                          % (args.experiment, ", ".join(unread)))
    return ExperimentConfig(experiment=args.experiment, **settings)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = build_config(argv)
        report = run(cfg)
    except ConfigError as exc:
        print("hlab: %s" % exc, file=sys.stderr)
        return 2
    except (QuadratureError, StripViolation, BudgetExhausted) as exc:
        print("hlab: numerical failure: %s" % exc, file=sys.stderr)
        return 3
    if cfg.out:
        with open(cfg.out, "w") as fh:
            report.to_csv(fh)
    else:
        report.to_csv(sys.stdout)
    print(report.summary, file=sys.stderr)
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
