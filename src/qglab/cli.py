"""Command-line front end.

Usage::

    qglab verify --group S3 --construction both --suites structure,lemma32 \
        --epsilons 0.01,0.1 --seed 7 --out report.json

Exit codes: 0 all checks passed, 1 at least one check failed, 2 input error.
The environment variable QGLAB_MAX_DIM overrides the dense dimension cap.
"""

from __future__ import annotations

import argparse
import sys

from .groups import GroupTableError
from .suites import CONSTRUCTIONS, SUITE_NAMES, RunConfig, run_suites
from .tensorlin import DimensionCapError

__all__ = ["main", "build_parser"]

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qglab",
        description="Build finite quantum groups from Cayley tables and certify their identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run check suites and emit a JSON certificate")
    verify.add_argument(
        "--group",
        required=True,
        help="builtin group name (Z1..Z8, S3, D4, Q8) or path to a JSON Cayley table",
    )
    verify.add_argument(
        "--construction",
        default="both",
        choices=CONSTRUCTIONS + ("both",),
        help="which construction(s) to run the suites on",
    )
    verify.add_argument(
        "--suites",
        default=",".join(SUITE_NAMES),
        help=f"comma-separated subset of: {', '.join(SUITE_NAMES)} (empty for none)",
    )
    verify.add_argument(
        "--epsilons",
        default="0.01,0.1,0.3",
        help="comma-separated perturbation levels for the bound sweeps",
    )
    verify.add_argument("--seed", type=int, default=0, help="random seed (fixes the report bytes)")
    verify.add_argument("--draws", type=int, default=50, help="random draws per dual and thm44 check")
    verify.add_argument(
        "--bound-draws", type=int, default=100, help="random draws per certified bound sweep"
    )
    verify.add_argument("--out", default=None, help="write the JSON report here (default stdout)")
    verify.add_argument(
        "--tol", type=float, default=None, help="override the default residual tolerances"
    )
    return parser


def _parse_csv_floats(raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(float(tok) for tok in raw.split(","))


def _parse_csv_names(raw: str) -> tuple[str, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(
            group_source=args.group,
            construction=args.construction,
            suites=_parse_csv_names(args.suites),
            epsilons=_parse_csv_floats(args.epsilons),
            seed=args.seed,
            draws=args.draws,
            bound_draws=args.bound_draws,
            tol=args.tol,
        )
        report = run_suites(cfg)
    except (GroupTableError, DimensionCapError, ValueError) as exc:
        print(f"qglab: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    payload = report.to_json_bytes()
    if args.out is None:
        sys.stdout.buffer.write(payload)
    else:
        with open(args.out, "wb") as fh:
            fh.write(payload)
        summary = report.summary()
        print(
            f"qglab: {summary['passed']}/{summary['total']} checks passed -> {args.out}",
            file=sys.stderr,
        )
    return EXIT_PASS if report.all_passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
