"""Command-line front end: counting, sampling, instance generation,
densification, and validation, all seed-reproducible.

Exit codes: 0 success, 1 malformed or oversized input (including --eps
outside (0, 1], a negative --samples, a --tau or --gamma that is not a power
of 2 in (0, 1), a --trunc-B below 1 or not a multiple of --tau, non-finite
instance entries, a --gamma with n*gamma^2 > 1/4 on a non-constant instance,
instances beyond the engine's size guards, and for densify an --eps or
--delta outside (0, 1), an --n-pos below 1 or below the coverage bound, or a
negative --mistake-budget), 2 below-floor counting result, 3 filter-retry
exhaustion, 4 validation/densification failure (including an exhausted
budget and a kappa-rounding flip rate above 1%).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import hardness
from .counter import (
    DEFAULT_EPS,
    DEFAULT_GAMMA,
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
from .grid import GridSpec
from .numerics import Rng
from .quadform import RoundingConfig, instance_to_dict, load_instance
from .sampler import FilterRetryError, FloorError, PtfSampler
from .validation import run_validation

DEFAULT_SEED = 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS, help="accuracy target")
    p.add_argument("--tau", type=float, default=DEFAULT_TAU, help="grid step (power of 2)")
    p.add_argument("--trunc-B", type=float, default=None, help="grid truncation radius")
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA, help="coefficient rounding step")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed")


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _bad_args(args: argparse.Namespace) -> str | None:
    if not (0.0 < args.eps <= 1.0):
        return f"--eps must lie in (0, 1], got {args.eps}"
    if getattr(args, "samples", 0) < 0:
        return f"--samples must be >= 0, got {args.samples}"
    try:
        RoundingConfig(gamma=args.gamma, tau=args.tau)
        if args.trunc_B is not None:
            GridSpec(tau=args.tau, B=args.trunc_B, n=1)
    except ValueError as exc:
        return str(exc)
    return None


def cmd_count(args: argparse.Namespace) -> int:
    bad = _bad_args(args)
    if bad:
        sys.stderr.write(f"error: {bad}\n")
        return 1
    try:
        inst = load_instance(args.instance)
    except Exception as exc:
        sys.stderr.write(f"error: cannot read instance: {exc}\n")
        return 1
    try:
        res = count_ptf_gaussian(
            inst, args.eps, tau=args.tau, trunc_B=args.trunc_B, gamma=args.gamma
        )
    except (EngineTooLargeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(res.to_dict())
    if res.below_floor:
        sys.stderr.write(
            f"warning: estimate {res.estimate} is below the floor {res.floor}\n"
        )
        return 2
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    bad = _bad_args(args)
    if bad:
        sys.stderr.write(f"error: {bad}\n")
        return 1
    try:
        inst = load_instance(args.instance)
    except Exception as exc:
        sys.stderr.write(f"error: cannot read instance: {exc}\n")
        return 1
    rng = Rng(args.seed)
    try:
        sampler = PtfSampler(
            inst,
            args.eps,
            tau=args.tau,
            trunc_B=args.trunc_B,
            gamma=args.gamma,
            retry_limit=args.filter_retries,
        )
        for i in range(args.samples):
            x = sampler.sample(rng, exact_filter=args.filter)
            if args.json:
                _emit({"x": [float(v) for v in x], "filtered": bool(args.filter)})
            else:
                sys.stdout.write(" ".join(f"{float(v):.17g}" for v in x) + "\n")
    except (EngineTooLargeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except FloorError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except FilterRetryError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    return 0


def cmd_geninstance(args: argparse.Namespace) -> int:
    try:
        weights = tuple(int(v) for v in args.w.split(","))
        inst = hardness.SubsetSumInstance(w0=args.w0, w=weights, variant=args.variant)
    except Exception as exc:
        sys.stderr.write(f"error: invalid subset-sum parameters: {exc}\n")
        return 1
    doc = hardness.instance_to_dict(inst, args.c)
    doc["solutions"] = [list(s) for s in inst.solutions()]
    if args.variant == "cube01":
        alpha, beta = hardness.alpha_beta_deg2(inst, args.c)
        _, f = hardness.gen_deg2_cube_instance(inst, args.c)
        doc["alpha"] = alpha
        doc["beta"] = beta
        doc["ptf"] = instance_to_dict(f)
    else:
        quartic, alpha, beta = hardness.gen_deg4_gauss_instance(inst, args.c)
        doc["alpha"] = alpha
        doc["beta"] = beta
        doc["lambda"] = quartic.lam
    _emit(doc)
    return 0


def _bad_densify_args(args: argparse.Namespace) -> str | None:
    for flag, v in (("--eps", args.eps), ("--delta", args.delta)):
        if not (0.0 < v < 1.0):
            return f"{flag} must lie in (0, 1), got {v}"
    if args.n_pos is not None and args.n_pos < 1:
        return f"--n-pos must be >= 1, got {args.n_pos}"
    if args.mistake_budget is not None and args.mistake_budget < 0:
        return f"--mistake-budget must be >= 0, got {args.mistake_budget}"
    return None


def cmd_densify(args: argparse.Namespace) -> int:
    bad = _bad_densify_args(args)
    if bad:
        sys.stderr.write(f"error: {bad}\n")
        return 1
    try:
        inst = load_instance(args.instance)
    except Exception as exc:
        sys.stderr.write(f"error: cannot read instance: {exc}\n")
        return 1
    cfg = DensifierConfig(
        eps=args.eps,
        delta=args.delta,
        mistake_budget=args.mistake_budget,
        n_pos=args.n_pos,
    )
    try:
        cfg.resolve(inst.n)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    try:
        report = planted_experiment(
            inst, cfg, Rng(args.seed), transcript_path=args.transcript
        )
    except (BudgetExhaustedError, KappaFlipError) as exc:
        if args.transcript:
            with open(args.transcript, "w", encoding="utf-8") as fh:
                for event in exc.transcript:
                    fh.write(json.dumps(event, sort_keys=True) + "\n")
        error = "budget-exhausted" if isinstance(exc, BudgetExhaustedError) else "kappa-flip"
        _emit({"error": error, "detail": str(exc)})
        return 4
    _emit(report)
    return 0 if (report["passed_a"] and report["passed_b"]) else 4


def cmd_validate(args: argparse.Namespace) -> int:
    results = run_validation()
    failed = 0
    for name, ok, detail in results:
        status = "ok" if ok else "FAIL"
        sys.stdout.write(f"{status:4s} {name}: {detail}\n")
        failed += 0 if ok else 1
    sys.stdout.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 0 if failed == 0 else 4


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
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

    pv = sub.add_parser("validate", help="run the shipped invariant checks")
    pv.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    np.seterr(all="ignore")  # log-domain arithmetic trips benign under/overflow
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
