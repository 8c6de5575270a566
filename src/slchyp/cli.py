"""Command-line front end with deterministic JSON reports.

Commands:
    classify / slc   semi-log canonicity (plus the mld verdict)
    mld              minimal log discrepancy only
    fpure            Frobenius-splitting test for (A, (f))
    jet-profile      contact-locus table from the jet oracle
    bounds           witness bound report for the uniform-bound conjecture
    verify           replay a report produced by classify/slc/mld

Exit codes: 0 verdict, 2 input error, 3 needs an algebraic extension,
4 jet-oracle budget exceeded, 1 failed verification.

A characteristic must be 0 or a prime below psi_13 =
3317044064679887385961981, the bound below which `is_prime` decides
primality exactly; a larger one is an input error, and `verify` rejects a
report over it.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import sys
import time
from typing import Optional

from .classifier import (
    Verdict,
    build_verdict,
    check_conjecture_bounds,
    classify_mld,
    classify_slc,
    is_tree_path,
    settle_slc,
)
from .fields import (
    CoefficientError,
    FieldContext,
    FieldEmbedding,
    NeedsAlgebraicExtension,
    RATIONALS,
    extension_field,
    is_prime,
    prime_field,
)
from .frobenius import fedder_is_fpure
from .jets import OracleOverflow, mld_profile
from .parse import parse_poly
from .poly import TriPoly
from .toricdiv import witness_search
from .normalize.auto import automorphism_from_json

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_EXTENSION = 3
EXIT_OVERFLOW = 4

# the witness search is cubic in --max-weight, so larger bounds are refused
MAX_WEIGHT = 64
# the jet system has 3(m+1) variables; x^2+y^3+z^5 at p=7 takes ~2.5 s at
# --m 7 and did not finish in 90 s at --m 8 (2-vCPU VM), so higher levels
# are refused
MAX_JET_LEVEL = 7

GRAMMAR = (
    'expr := term (("+"|"-") term)*; term := factor ("*" factor)*; '
    'factor := integer | integer "/" integer | var | var "^" uint | "(" expr ")"; '
    "var in {x, y, z}; whitespace insignificant; no implicit multiplication"
)


def _field_json(ctx: FieldContext):
    return {
        "characteristic": ctx.characteristic,
        "extension_degree": ctx.extension_degree,
        "modulus": _modulus_str(ctx),
    }


def _modulus_str(ctx: FieldContext) -> Optional[str]:
    if ctx.modulus is None:
        return None
    parts = []
    for i, c in enumerate(ctx.modulus):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("t" if c == 1 else f"{c}*t")
        else:
            parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
    return "+".join(reversed(parts))


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write(json.dumps(report, separators=(",", ":")) + "\n")


def _context_for(char: int) -> FieldContext:
    if char == 0:
        return RATIONALS
    if not is_prime(char):
        raise CoefficientError(f"characteristic {char} is not prime")
    return prime_field(char)


def _base_report(text: str, command: str, ctx: FieldContext) -> dict:
    return {
        "input": text,
        "field": _field_json(ctx),
        "command": command,
        "verdict": None,
        "timing_ms": 0,
    }


def _verdict_payload(verdict: Verdict) -> dict:
    data = verdict.to_json()
    data["final_field"] = _field_json(verdict.context)
    data["bounds"] = check_conjecture_bounds(verdict).to_json()
    return data


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later runs."""
    parser = argparse.ArgumentParser(
        prog="slchyp",
        description="exact semi-log canonicity and minimal log discrepancy "
        "classifier for surface germs f in k[[x,y,z]]",
        epilog=f"polynomial grammar: {GRAMMAR}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_poly=True):
        p.add_argument("--char", type=int, required=True,
                       help="field characteristic: a prime, or 0 for Q")
        if need_poly:
            p.add_argument("--poly", type=str, required=True,
                           help="polynomial in the documented grammar")
        p.add_argument("--max-weight", type=int, default=8,
                       help=f"bound for auxiliary witness searches, 1..{MAX_WEIGHT} "
                            "(default 8)")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="pretty", action="store_false",
                         default=False, help="canonical single-line JSON (default)")
        fmt.add_argument("--pretty", dest="pretty", action="store_true",
                         help="indented JSON with measured timing")

    for name in ("classify", "slc", "mld", "fpure", "bounds"):
        add_common(sub.add_parser(name))
    jp = sub.add_parser("jet-profile")
    add_common(jp)
    jp.add_argument("--m", type=int, default=3,
                    help=f"maximum jet level, 1..{MAX_JET_LEVEL} (default 3)")
    jp.add_argument("--expected-mld", type=int, default=None)
    vf = sub.add_parser("verify")
    vf.add_argument("report", nargs="?", default="-",
                    help="path to a report JSON, or - for stdin")
    return parser


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0

    if args.command == "verify":
        return _cmd_verify(args)

    started = time.monotonic()
    try:
        if not 1 <= args.max_weight <= MAX_WEIGHT:
            raise ValueError(f"--max-weight must be in 1..{MAX_WEIGHT}")
        if args.command == "jet-profile" and not 1 <= args.m <= MAX_JET_LEVEL:
            raise ValueError(f"--m must be in 1..{MAX_JET_LEVEL}")
        ctx = _context_for(args.char)
        try:
            f = parse_poly(args.poly, ctx)
        except ValueError as exc:  # a syntax or coefficient error in --poly
            _emit({"error": str(exc), "grammar": GRAMMAR}, False)
            return EXIT_INPUT
        report = _base_report(args.poly, args.command, ctx)
        if args.command in ("classify", "slc"):
            verdict = classify_slc(f, args.char)
            report["verdict"] = _verdict_payload(verdict)
        elif args.command == "mld":
            verdict = classify_mld(f, args.char)
            report["verdict"] = _verdict_payload(verdict)
        elif args.command == "fpure":
            cert = fedder_is_fpure(f)
            report["verdict"] = cert.to_json()
        elif args.command == "jet-profile":
            summary = mld_profile(f, args.m, expected_mld=args.expected_mld)
            payload = summary.to_json()
            payload["entries"] = payload.pop("contact")
            report["verdict"] = payload
        elif args.command == "bounds":
            verdict = classify_mld(f, args.char)
            payload = check_conjecture_bounds(verdict).to_json()
            payload["mld"] = verdict.mld.to_json()
            search = witness_search(verdict.transformed, args.max_weight)
            payload["independent_witness_search"] = (
                search.to_json() if search else None
            )
            report["verdict"] = payload
    except ValueError as exc:  # a range check, --char, or f unfit for the command
        _emit({"error": str(exc)}, False)
        return EXIT_INPUT
    except NeedsAlgebraicExtension as exc:
        payload = {"error": str(exc), "kind": "needs_algebraic_extension"}
        if exc.polynomial is not None:
            payload["polynomial"] = str(exc.polynomial)
        _emit(payload, False)
        return EXIT_EXTENSION
    except OracleOverflow as exc:
        _emit({"error": str(exc), "kind": "oracle_overflow"}, False)
        return EXIT_OVERFLOW

    if args.pretty:
        report["timing_ms"] = int((time.monotonic() - started) * 1000)
    _emit(report, args.pretty)
    return EXIT_OK


def _cmd_verify(args) -> int:
    """Check the envelope (command, the characteristic and degree of the
    final field, the branch trace as a path of the tree), rebuild the verdict
    with the classifier's own code on the report's automorphism applied to
    the parsed input, and compare the whole rebuilt report with the claimed
    one.  Only the certificates' prose details and timing_ms are taken from
    the claim."""
    try:
        if args.report == "-":
            text = sys.stdin.read()
        else:
            with open(args.report, "r", encoding="utf-8") as fh:
                text = fh.read()
        report = json.loads(text)
        command = report["command"]
        if command not in ("mld", "slc", "classify"):
            raise ValueError(f"cannot verify a {command!r} report")
        verdict = report["verdict"]
        base_ctx = _context_for(report["field"]["characteristic"])
        f = parse_poly(report["input"], base_ctx)
        final = verdict["final_field"]
        if final["characteristic"] != base_ctx.characteristic:
            raise ValueError("field characteristic changed in report")
        final_ctx = _reconstruct_context(final)
        trace = verdict["branch_trace"]
        path = trace[:-1] if trace[-1:] == ["non-reduced"] else trace
        if not is_tree_path(path, f.ord_w((1, 1, 1))):
            raise ValueError("branch trace is not a path of the classification tree")
        auto = automorphism_from_json(verdict["automorphism"], final_ctx)
        # the input field is prime, so the degree over it is the final degree
        rebuilt = build_verdict(auto.apply(_lift(f, base_ctx, final_ctx)), auto,
                                list(path), collections.defaultdict(str),
                                final_ctx.extension_degree)
        if command != "mld":
            settle_slc(f, rebuilt)
        expected = _base_report(report["input"], command, base_ctx)
        expected["verdict"] = _verdict_payload(rebuilt)
        expected["timing_ms"] = report.get("timing_ms")
        claimed = verdict.get("certificates")
        for cert, claim in zip(expected["verdict"]["certificates"],
                               claimed if type(claimed) is list else []):
            if type(claim) is dict and type(claim.get("detail")) is str:
                cert["detail"] = claim["detail"]
        if _differs(report, expected):
            raise ValueError(f"{_first_difference(report, expected)} differs "
                             "from the rebuilt report")
    except Exception as exc:  # any failure to replay an outside report rejects it
        _emit({"verified": False, "error": str(exc)}, False)
        return EXIT_VERIFY_FAILED
    _emit({"verified": True}, False)
    return EXIT_OK


def _differs(claimed, expected) -> bool:
    """JSON values differ, types included (in Python 1 == True)."""
    return json.dumps(claimed, sort_keys=True) != json.dumps(expected, sort_keys=True)


def _first_difference(claimed: dict, expected: dict) -> str:
    """The dotted key path of the first difference between two JSON objects
    that differ; a key missing on either side counts."""
    for key in dict.fromkeys([*expected, *claimed]):
        pair = claimed.get(key), expected.get(key)
        if key not in claimed or key not in expected or _differs(*pair):
            if type(pair[0]) is dict and type(pair[1]) is dict:
                return f"{key}.{_first_difference(*pair)}"
            return key


def _reconstruct_context(data) -> FieldContext:
    """The field a final_field block names; the caller compares the whole
    block, modulus included, with the field's own description."""
    char = data["characteristic"]
    deg = data["extension_degree"]
    if char == 0:
        return RATIONALS
    return prime_field(char) if deg == 1 else extension_field(char, deg)


def _lift(f: TriPoly, base: FieldContext, final: FieldContext) -> TriPoly:
    """f, parsed over Q or the prime field base, over the field final of the
    same characteristic; lifting from a prime field is coefficientwise."""
    if base == final:
        return f
    return f.map_coefficients(FieldEmbedding(base, final, None), final)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
