"""Command-line front end: counting, sampling, instance generation and
densification, all fixed by their flags (and --seed).

Commands load their input and call the library, which checks its own
settings; ``main`` writes any error they raise as one ``error: <message>``
line on stderr.  Exit codes:

- 0: success, and --help.
- 1: malformed or oversized input: a usage error (an unknown, missing or
  unparsable flag, an unreadable instance, a negative --samples), a setting
  the library rejects with ValueError (a --tau that is not a power of 2 in
  (0, 1], for one), or an instance beyond the engine's size guards.
- 2: a counted mass below the floor (``count`` still prints its result).
- 3: the exact filter rejected every draw within --filter-retries.
- 4: densification failed, including an exhausted mistake budget and a
  kappa-rounding flip rate above 1% (``densify`` then prints a JSON
  ``error`` line).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from . import hardness
from .counter import (
    DEFAULT_EPS,
    DEFAULT_TAU,
    EngineTooLargeError,
    count_ptf_gaussian,
)
from .densifier import (
    BudgetExhaustedError,
    DensifierConfig,
    KappaFlipError,
    planted_experiment,
)
from .numerics import Rng
from .quadform import DecoupledConstraint, QuadraticForm, instance_to_dict, load_instance
from .sampler import FilterRetryError, FloorError, PtfSampler

DEFAULT_SEED = 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error to main() instead of exiting with argparse's
    status 2, which is the below-floor code here."""

    def error(self, message):
        raise _UsageError(f"{message} (see {self.prog} --help)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS, help="accuracy target")
    p.add_argument("--tau", type=float, default=DEFAULT_TAU, help="grid step (power of 2)")
    p.add_argument("--trunc-B", type=float, default=None, help="grid truncation radius")


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, allow_nan=False) + "\n")


def _load(path: str) -> QuadraticForm | DecoupledConstraint:
    try:
        return load_instance(path)
    except Exception as exc:
        raise _UsageError(f"cannot read instance: {exc}") from exc


def cmd_count(args: argparse.Namespace) -> int:
    res = count_ptf_gaussian(_load(args.instance), args.eps, tau=args.tau, trunc_B=args.trunc_B)
    _emit(res.to_dict())
    if res.below_floor:
        sys.stderr.write(
            f"warning: estimate {res.estimate} is below the floor {res.floor}\n"
        )
        return 2
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    if args.samples < 0:
        raise _UsageError(f"--samples must be >= 0, got {args.samples}")
    rng = Rng(args.seed)
    sampler = PtfSampler(
        _load(args.instance),
        args.eps,
        tau=args.tau,
        trunc_B=args.trunc_B,
        retry_limit=args.filter_retries,
    )
    for _ in range(args.samples):
        x = sampler.sample(rng, exact_filter=args.filter)
        if args.json:
            _emit({"x": [float(v) for v in x], "filtered": bool(args.filter)})
        else:
            sys.stdout.write(" ".join(f"{float(v):.17g}" for v in x) + "\n")
    return 0


def cmd_geninstance(args: argparse.Namespace) -> int:
    try:
        weights = tuple(int(v) for v in args.w.split(","))
        inst = hardness.SubsetSumInstance(w0=args.w0, w=weights, variant=args.variant)
    except ValueError as exc:
        raise _UsageError(f"invalid subset-sum parameters: {exc}") from exc
    doc = hardness.instance_to_dict(inst, args.c)
    doc["solutions"] = [list(s) for s in inst.solutions()]
    if args.variant == "cube01":
        alpha, beta = hardness.alpha_beta_deg2(inst, args.c)
        _, f = hardness.gen_deg2_cube_instance(inst, args.c)
        doc["ptf"] = instance_to_dict(f)
    else:
        quartic, alpha, beta = hardness.gen_deg4_gauss_instance(inst, args.c)
        doc["lambda"] = quartic.lam
    doc["alpha"] = alpha
    doc["beta"] = beta
    _emit(doc)
    return 0


def _open_transcript(path: str | None):
    """The --transcript file, opened before the run so that a bad path
    fails at once."""
    if path is None:
        return nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot write transcript: {exc}") from exc


def cmd_densify(args: argparse.Namespace) -> int:
    cfg = DensifierConfig(
        eps=args.eps,
        delta=args.delta,
        mistake_budget=args.mistake_budget,
        n_pos=args.n_pos,
    )
    inst = _load(args.instance)
    rng = Rng(args.seed)
    try:
        with _open_transcript(args.transcript) as fh:
            report = planted_experiment(inst, cfg, rng, transcript=fh)
    except (BudgetExhaustedError, KappaFlipError) as exc:
        error = "budget-exhausted" if isinstance(exc, BudgetExhaustedError) else "kappa-flip"
        _emit({"error": error, "detail": str(exc)})
        return 4
    _emit(report)
    return 0 if (report["passed_a"] and report["passed_b"]) else 4


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="quadgauss",
        description=(
            "Deterministic Gaussian measure of quadratic threshold regions, "
            "conditioned sampling, subset-sum hard-instance generation, and "
            "the positive-sample densifier loop."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("count", help="estimate Pr[sign(p(G)) = +1] for an instance")
    _add_common(pc)
    pc.set_defaults(func=cmd_count)

    ps = sub.add_parser("sample", help="draw points from the conditioned Gaussian")
    _add_common(ps)
    ps.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed")
    ps.add_argument("--samples", type=int, default=1, help="number of points")
    ps.add_argument("--filter", action="store_true", help="reject draws violating the original polynomial")
    ps.add_argument("--filter-retries", type=int, default=100, help="exact-filter retry limit")
    ps.add_argument("--json", action="store_true", help="JSON-lines output")
    ps.set_defaults(func=cmd_sample)

    pg = sub.add_parser("geninstance", help="generate a subset-sum hard instance")
    pg.add_argument("--variant", choices=("cube01", "pm1"), default="cube01")
    pg.add_argument("--w0", type=int, required=True, help="subset-sum target")
    pg.add_argument("--w", type=str, required=True, help="comma-separated weights")
    pg.add_argument("--c", type=float, default=4.0, help="penalty scale factor")
    pg.set_defaults(func=cmd_geninstance)

    pd = sub.add_parser("densify", help="planted densifier experiment on an instance")
    pd.add_argument("--instance", required=True)
    pd.add_argument("--eps", type=float, default=0.1)
    pd.add_argument("--delta", type=float, default=0.1)
    pd.add_argument("--mistake-budget", type=int, default=None)
    pd.add_argument("--n-pos", type=int, default=None)
    pd.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pd.add_argument("--transcript", type=str, default=None, help="write the run transcript as JSON lines")
    pd.set_defaults(func=cmd_densify)

    return p


# Errors main() reports as one "error:" line, with their exit codes
_EXIT_CODES = (
    (_UsageError, 1),
    (ValueError, 1),
    (EngineTooLargeError, 1),
    (FloorError, 2),
    (FilterRetryError, 3),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
