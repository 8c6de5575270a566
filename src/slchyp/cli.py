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
    NEXT_STAGE,
    SLC_NOT_APPLICABLE,
    BoundReport,
    Verdict,
    ZeroPolynomial,
    check_conjecture_bounds,
    classify_mld,
    classify_slc,
    order_label,
    terminal_branch,
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
from .frobenius import CharZero, fedder_is_fpure
from .jets import OracleOverflow, mld_profile
from .parse import PolySyntaxError, parse_poly
from .poly import NonLocalSubstitution, TriPoly, is_squarefree, tripoly_from_json
from .toricdiv import discrepancy, witness_search
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


def _base_report(args, command: str, ctx: FieldContext) -> dict:
    return {
        "input": args.poly,
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
        p.add_argument("--strict-q", action="store_true",
                       help="deprecated, has no effect: algebraic extensions "
                            "over Q are never made")
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
        f = parse_poly(args.poly, ctx)
        report = _base_report(args, args.command, ctx)
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
    except (PolySyntaxError, CoefficientError, ZeroPolynomial,
            NonLocalSubstitution, ValueError) as exc:
        _emit({"error": str(exc), "grammar": GRAMMAR}, False)
        return EXIT_INPUT
    except CharZero as exc:
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
    """Check the envelope (command, input field, the whole final_field block,
    extension degree), replay automorphism, initial form, witness discrepancy
    and bounds from a report, recompute any slc claim from is_squarefree(f)
    and mld, replay the branch trace label by label as a path of the tree
    from the multiplicity of f, and check the verdict and its certificates
    against the table entry of the terminal branch, rerunning each Fedder
    test on the entry's model."""
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
        char = report["field"]["characteristic"]
        base_ctx = _context_for(char)
        if _differs(report["field"], _field_json(base_ctx)):
            raise ValueError("input field is not the prime field or Q")
        f = parse_poly(report["input"], base_ctx)
        final = verdict["final_field"]
        if final["characteristic"] != char:
            raise ValueError("field characteristic changed in report")
        # the input field is prime, so the degree over it is the final degree
        if _differs(verdict["field_extension_used"], final["extension_degree"]):
            raise ValueError("field_extension_used is not the final field's degree")
        final_ctx = _reconstruct_context(final)
        if _differs(final, _field_json(final_ctx)):
            raise ValueError("final_field is not the canonical field it names")
        f_final = _lift(f, base_ctx, final_ctx)
        auto = automorphism_from_json(verdict["automorphism"], final_ctx)
        transformed = auto.apply(f_final)
        weight = tuple(verdict["initial_weight"])
        initial = transformed.in_w(weight)
        recorded = tripoly_from_json(final_ctx, verdict["initial_form_terms"])
        if initial != recorded or verdict["initial_form"] != str(initial):
            raise ValueError("initial form does not replay")
        wit = verdict["witness"]
        if wit is None:
            raise ValueError("report carries no witness")
        rep = discrepancy(initial, tuple(wit["weight"]))
        if rep.ord != wit["ord"] or rep.a != wit["a"]:
            raise ValueError("witness discrepancy does not replay")
        if rep.divisor.k_e != wit["k_E"]:
            raise ValueError("witness k_E does not replay")
        mld = verdict["mld"]
        if mld == "-inf":
            if rep.a >= 0:
                raise ValueError("negative verdict lacks a negative witness")
        else:
            if type(mld) is not int or not 0 <= mld <= rep.a:
                raise ValueError("finite mld is not in [0, witness a]")
            if wit["computes_mld"] and mld != rep.a:
                raise ValueError("mld differs from the witness that computes it")
        if _differs(verdict["bounds"], BoundReport.of_witness(rep).to_json()):
            raise ValueError("bounds block does not replay")
        slc = verdict["slc"]
        if (slc is None) != (command == "mld"):
            raise ValueError("slc is null exactly in an mld report")
        if slc is not None:
            expected = mld != "-inf" if is_squarefree(f) else SLC_NOT_APPLICABLE
            if type(slc) is not type(expected) or slc != expected:
                raise ValueError("slc claim does not replay")
        trace = verdict["branch_trace"]
        if (trace[-1:] == ["non-reduced"]) != (slc == SLC_NOT_APPLICABLE):
            raise ValueError("non-reduced ends the trace exactly when slc is not applicable")
        path = trace[:-1] if slc == SLC_NOT_APPLICABLE else trace
        if not _is_tree_path(path, f.ord_w((1, 1, 1))):
            raise ValueError("branch trace is not a path of the classification tree")
        label = path[-1]
        branch = terminal_branch(label)
        claimed = [mld, wit["weight"], verdict["initial_weight"], wit["computes_mld"]]
        entry = ["-inf" if branch.mld is None else branch.mld, branch.witness,
                 branch.initial_weight, branch.computes_mld]
        if _differs(claimed, entry):
            raise ValueError(f"verdict differs from the table entry of {label}")
        certs = verdict["certificates"]
        if type(certs) is not list or any(type(c) is not dict for c in certs):
            raise ValueError("certificates are not a list of objects")
        # details are prose, so kinds and Fedder blocks carry the claims
        recipe = branch.certificates(char, initial, collections.defaultdict(str))
        if _differs([(c.get("kind"), c.get("fedder")) for c in certs],
                    [(c.kind, c.to_json().get("fedder")) for c in recipe]):
            raise ValueError(f"certificates differ from the recipe of {label}")
    except Exception as exc:  # any failure to replay an outside report rejects it
        _emit({"verified": False, "error": str(exc)}, False)
        return EXIT_VERIFY_FAILED
    _emit({"verified": True}, False)
    return EXIT_OK


def _is_tree_path(path, o) -> bool:
    """Whether path is a walk of the tree for an f of multiplicity o, label by
    label: the multiplicity, then the cone or quadric stage, each pass label
    of NEXT_STAGE followed by a label of the stage it enters, and a terminal
    label last."""
    if o not in (2, 3):
        return path == [order_label(o)]
    if len(path) < 2 or path[0] != f"multiplicity={o}":
        return False
    stage = "cone" if o == 3 else "quadric"
    for label in path[1:-1]:
        if not label.startswith(stage + ":") or label not in NEXT_STAGE:
            return False
        stage = NEXT_STAGE[label]
    return path[-1].startswith(stage + ":") and terminal_branch(path[-1]) is not None


def _differs(claimed, expected) -> bool:
    """JSON values differ, types included (in Python 1 == True)."""
    return json.dumps(claimed, sort_keys=True) != json.dumps(expected, sort_keys=True)


def _reconstruct_context(data) -> FieldContext:
    """The field a final_field block names; the caller compares the whole
    block, modulus included, with the field's own description."""
    char = data["characteristic"]
    deg = data["extension_degree"]
    if char == 0:
        return RATIONALS
    return prime_field(char) if deg == 1 else extension_field(char, deg)


def _lift(f: TriPoly, base: FieldContext, final: FieldContext) -> TriPoly:
    if base == final:
        return f
    if base.is_rational:
        raise ValueError("rational fields never extend")
    # inputs are parsed over the prime field, so lifting is coefficientwise
    if base.extension_degree != 1:
        raise ValueError("unexpected non-prime base field")
    return f.map_coefficients(FieldEmbedding(base, final, None), final)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
