"""Command-line front end.

Subcommands run one verification family each; ``all`` runs the whole
acceptance suite.  Reports stream to stdout as text or JSON; exit codes:
0 all pass, 1 at least one mismatch, 2 usage or configuration error,
3 numeric failure (non-convergence, pole), 4 internal error.

JSON reports are deterministic for a fixed configuration once timings
are suppressed with ``--no-timing``.  Exact rationals appear as
``"num/den"`` strings.  Beyond the flat ``cases_run`` / ``skipped`` /
``failures`` keys, reports carry a ``flagged`` list (documented
closed-form discrepancies, never counted as passes) and per-check
``reports`` detail; ``--strict-printed`` makes flagged cases count as
mismatches for the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from fractions import Fraction
from typing import Any, Callable, Sequence

from . import hyperseries, numerics, suite
from .exactnum import ZeroLowerPochhammer
from .identities import IDENTITIES, IdentityId, verify_grid
from .report import VerificationReport, encode_value

__all__ = ["main", "build_parser"]

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

# an error's exit code is that of the first entry whose types it matches
_ERROR_EXITS = (
    ((numerics.NonConvergent, numerics.TailBoundExceeded, numerics.PoleError),
     EXIT_NUMERIC),
    ((ZeroLowerPochhammer, ValueError), EXIT_USAGE),
    (Exception, EXIT_INTERNAL),
)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or lo..hi range, got {text!r}"
        ) from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _parse_nonnegative_range(text: str) -> tuple[int, int]:
    # --n and the theorems' shifts: a negative point could only be skipped
    lo, hi = _parse_range(text)
    if lo < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative lower end, got {text!r}"
        )
    return lo, hi


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational like 3 or 5/2, got {text!r}"
        ) from None


def _parse_positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"need at least 1, got {value}")
    return value


def _parse_fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_parse_fraction(part) for part in text.split(","))


def _fmt(value: Any) -> Any:
    if isinstance(value, tuple) and len(value) == 2 and all(
        isinstance(v, int) for v in value
    ):
        return f"{value[0]}..{value[1]}"
    if isinstance(value, tuple):
        return ",".join(str(encode_value(v)) for v in value)
    return encode_value(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catconv",
        description=(
            "Exact and high-precision verification of alternating "
            "convolution identities for Catalan numbers and binomial "
            "coefficients."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default text)",
    )
    common.add_argument(
        "--no-timing", action="store_true",
        help="omit timings so identical configs give identical bytes",
    )
    common.add_argument(
        "--out", default=None, help="also write the report to this path"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", parents=[common],
        help="exact check of one identity over parameter ranges",
    )
    verify.add_argument(
        "--identity", required=True,
        choices=[ident.value for ident in IdentityId],
    )
    verify.add_argument("--n", type=_parse_nonnegative_range, default=(0, 24))
    verify.add_argument(
        "--lambda", dest="lam", type=_parse_nonnegative_range, default=None
    )
    verify.add_argument("--mu", type=_parse_nonnegative_range, default=None)
    verify.add_argument(
        "--a", type=_parse_fraction_list, default=None,
        help="comma-separated rationals for the a grid",
    )
    verify.add_argument(
        "--c", type=_parse_fraction_list, default=None,
        help="comma-separated rationals for the c grid",
    )
    verify.add_argument("--strict-printed", action="store_true")

    coeffs = sub.add_parser(
        "coeffs", parents=[common],
        help="coefficientwise check of a product formula",
    )
    coeffs.add_argument(
        "--formula", required=True, choices=hyperseries.PRODUCT_FORMULAE
    )
    coeffs.add_argument("--a", type=_parse_fraction, default=None)
    coeffs.add_argument("--c", type=_parse_fraction, default=None)
    coeffs.add_argument(
        "--lambda", dest="lam", type=_parse_fraction, default=None
    )
    coeffs.add_argument(
        "--order", type=int, default=hyperseries.DEFAULT_ORDER
    )

    fourf3 = sub.add_parser(
        "fourf3", parents=[common],
        help="terminating 4F3 evaluation and contiguous relation",
    )
    fourf3.add_argument("--n", type=_parse_nonnegative_range, default=(0, 12))
    fourf3.add_argument(
        "--lambda", dest="lam", type=_parse_range, default=(1, 4)
    )
    fourf3.add_argument("--c", type=_parse_fraction_list, default=None)
    fourf3.add_argument("--e", type=_parse_fraction_list, default=None)

    gamma = sub.add_parser(
        "gamma-selftest", parents=[common],
        help="reflection and duplication identities at one precision",
    )
    gamma.add_argument("--prec", type=int, default=40)

    numeric = sub.add_parser(
        "numeric", parents=[common],
        help="nonterminating series against Gamma closed forms",
    )
    numeric.add_argument(
        "--family", required=True, choices=numerics.NUMERIC_FAMILIES
    )
    numeric.add_argument("--a", type=_parse_fraction, default=None)
    numeric.add_argument("--c", type=_parse_fraction, default=None)
    numeric.add_argument("--e", type=_parse_fraction, default=None)
    numeric.add_argument(
        "--lambda", dest="lam", type=_parse_fraction, default=None
    )
    numeric.add_argument("--prec", type=int, default=40)
    numeric.add_argument(
        "--max-terms", type=_parse_positive_int, default=100000
    )

    integral = sub.add_parser(
        "integral", parents=[common],
        help="double-integral representations exactly from Beta moments",
    )
    integral.add_argument(
        "--which", required=True, choices=numerics.INTEGRAL_FAMILIES
    )
    integral.add_argument("--n", type=_parse_nonnegative_range, default=(0, 8))
    integral.add_argument(
        "--lambda", dest="lam", type=_parse_nonnegative_range, default=(0, 3)
    )

    everything = sub.add_parser(
        "all", parents=[common], help="run the whole acceptance suite"
    )
    everything.add_argument("--quick", action="store_true")
    everything.add_argument("--strict-printed", action="store_true")
    everything.add_argument(
        "--jobs", type=_parse_positive_int, default=1,
        help="accepted for compatibility and echoed in the config; every "
        "run is one process (default 1)",
    )

    return parser


def _reject_unread(args, keys: Sequence[str], reason: str) -> None:
    # an option the command would not read must not be echoed as applied
    for key in keys:
        if getattr(args, key) is not None:
            option = "--lambda" if key == "lam" else f"--{key}"
            raise ValueError(f"{option} {reason}")


def _cmd_verify(args) -> list[VerificationReport]:
    ident = IdentityId(args.identity)
    params = IDENTITIES[ident].params
    _reject_unread(
        args,
        [key for key in ("lam", "mu", "a", "c") if key not in params],
        f"is not a parameter of {ident.value}",
    )
    report = verify_grid(
        ident,
        args.n,
        lam_range=args.lam,
        mu_range=args.mu,
        a_grid=args.a,
        c_grid=args.c,
    )
    return [report]


def _cmd_coeffs(args) -> list[VerificationReport]:
    if (args.a is None) != (args.c is None):
        raise ValueError("give both --a and --c, or neither for a grid sweep")
    if args.formula != hyperseries.LEMMA_LINEAR:
        _reject_unread(args, ("lam",), "is read only by lemma-linear")
    if args.a is not None:
        report = hyperseries.check_product_formula(
            args.formula, args.a, args.c, args.lam, args.order
        )
    else:
        lam_grid = (args.lam,) if args.lam is not None else None
        report = hyperseries.check_product_grid(
            args.formula, order=args.order, lam_grid=lam_grid
        )
    return [report]


def _cmd_fourf3(args) -> list[VerificationReport]:
    grid = hyperseries.DEFAULT_RATIONAL_GRID
    reports = suite.f43_sweep(
        range(args.n[0], args.n[1] + 1),
        args.c or grid,
        args.e or grid,
        range(args.lam[0], args.lam[1] + 1),
    )
    return reports


def _cmd_gamma(args) -> list[VerificationReport]:
    return [numerics.gamma_selftest(args.prec)]


def _cmd_numeric(args) -> list[VerificationReport]:
    if args.family != "linear4f3":
        _reject_unread(args, ("lam",), "is read only by linear4f3")
    if args.a is None:
        _reject_unread(args, ("c", "e", "lam"), "needs --a")
    points = None
    if args.a is not None:
        if args.c is None or args.e is None:
            raise ValueError("a single point needs --a, --c, and --e")
        point: tuple = (args.a, args.c, args.e)
        if args.family == "linear4f3":
            if args.lam is None:
                raise ValueError("linear4f3 needs --lambda")
            point = point + (args.lam,)
        points = [point]
    report = suite.numeric_sweep(
        args.family, args.prec, args.max_terms, points
    )
    return [report]


def _cmd_integral(args) -> list[VerificationReport]:
    report = suite.integral_sweep(
        args.which,
        range(args.n[0], args.n[1] + 1),
        range(args.lam[0], args.lam[1] + 1),
    )
    return [report]


def _cmd_all(args) -> list[suite.CriterionResult]:
    return suite.run_all(quick=args.quick)


_HANDLERS: dict[str, Callable] = {
    "verify": _cmd_verify,
    "coeffs": _cmd_coeffs,
    "fourf3": _cmd_fourf3,
    "gamma-selftest": _cmd_gamma,
    "numeric": _cmd_numeric,
    "integral": _cmd_integral,
    "all": _cmd_all,
}

_ECHO_KEYS = (
    "identity", "formula", "family", "which", "quick",
    "n", "lam", "mu", "a", "c", "e",
    "order", "prec", "max_terms", "jobs", "strict_printed",
)


def _config_echo(args) -> dict[str, Any]:
    echo: dict[str, Any] = {}
    for key in _ECHO_KEYS:
        if hasattr(args, key):
            value = getattr(args, key)
            if value is not None:
                echo[key] = _fmt(value)
    return echo


def _exit_code(error: Exception) -> int:
    return next(c for kinds, c in _ERROR_EXITS if isinstance(error, kinds))


def _verdict(args, reports, ok: bool, error) -> tuple[int, str]:
    """The exit code and the ``overall:`` text of a finished run; ``ok``
    is False when a criterion of ``all`` failed."""
    if error is not None:
        return _exit_code(error), "FAIL"
    if not ok or any(r.failures for r in reports):
        return EXIT_MISMATCH, "FAIL"
    if not any(r.flagged for r in reports):
        return EXIT_PASS, "PASS"
    if getattr(args, "strict_printed", False):
        return EXIT_MISMATCH, "FAIL (flagged, strict)"
    return EXIT_PASS, "PASS (with flagged discrepancies)"


def _emit(args, results, error: Exception | None, elapsed_ms: float) -> int:
    include_timing = not args.no_timing
    # ``all`` returns its criteria, every other command its reports
    criteria = results if args.command == "all" and error is None else None
    reports = results if criteria is None else [
        r for c in criteria for r in c.reports
    ]
    ok = all(c.passed for c in criteria or ())
    code, overall = _verdict(args, reports, ok, error)
    payload: dict[str, Any] = {
        "command": args.command,
        "config_echo": _config_echo(args),
        "cases_run": sum(r.cases_run for r in reports),
        "skipped": sum(r.skipped for r in reports),
        "failures": [case.as_dict() for r in reports for case in r.failures],
        "flagged": [case.as_dict() for r in reports for case in r.flagged],
    }
    if criteria is not None:
        payload["ok"] = ok
        payload["criteria"] = [
            c.as_dict(include_timing=include_timing) for c in criteria
        ]
    else:
        payload["reports"] = [
            r.as_dict(include_timing=include_timing) for r in reports
        ]
    if error is not None:
        payload["error"] = {
            "type": type(error).__name__, "message": str(error)
        }
    if include_timing:
        payload["elapsed_ms"] = round(elapsed_ms, 3)
        if criteria is not None:
            payload["suite_elapsed_s"] = round(
                sum(c.elapsed_s for c in criteria), 3
            )

    if args.format == "json":
        rendered = json.dumps(payload, indent=2)
    else:
        rendered = _render_text(payload, criteria, overall, include_timing)
    print(rendered)
    if args.out:
        try:
            _write_atomically(args.out, rendered + "\n")
        except OSError as exc:
            print(
                f"catconv: OSError: cannot write {args.out}: "
                f"{exc.strerror or exc}",
                file=sys.stderr,
            )
            return EXIT_USAGE
    return code


def _write_atomically(path: str, text: str) -> None:
    # through a sibling file, so a failed write leaves no truncated file
    partial = f"{path}.{os.getpid()}.tmp"
    try:
        with open(partial, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _render_text(payload, criteria, overall: str, include_timing: bool) -> str:
    lines = [f"command: {payload['command']}"]
    if criteria is not None:
        for criterion in criteria:
            verdict = "PASS" if criterion.passed else "FAIL"
            timing = (
                f" ({criterion.elapsed_s:.1f}s)" if include_timing else ""
            )
            lines.append(
                f"criterion {criterion.number:2d} {verdict}  "
                f"{criterion.title}{timing}"
            )
    else:
        for report in payload["reports"]:
            verdict = "PASS" if not report["failures"] else "FAIL"
            lines.append(
                "{name}: cases={cases_run} skipped={skipped} "
                "failures={nfail} flagged={nflag} {verdict}".format(
                    name=report["name"],
                    cases_run=report["cases_run"],
                    skipped=report["skipped"],
                    nfail=len(report["failures"]),
                    nflag=len(report["flagged"]),
                    verdict=verdict,
                )
            )
    for case in payload["failures"][:20]:
        lines.append(f"  FAIL {case['params']} lhs={case['lhs']} rhs={case['rhs']}")
    for case in payload["flagged"][:20]:
        lines.append(f"  FLAG {case['params']} lhs={case['lhs']} rhs={case['rhs']}")
    if payload.get("error"):
        lines.append(
            f"error: {payload['error']['type']}: {payload['error']['message']}"
        )
    timing = f" in {payload['elapsed_ms']:.0f} ms" if include_timing else ""
    lines.append(f"overall: {overall}{timing}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    results: list = []
    error = None
    try:
        results = _HANDLERS[args.command](args)
    except Exception as exc:
        error = exc
        if _exit_code(exc) == EXIT_INTERNAL:
            traceback.print_exc()
        print(f"catconv: {type(exc).__name__}: {exc}", file=sys.stderr)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return _emit(args, results, error, elapsed_ms)
