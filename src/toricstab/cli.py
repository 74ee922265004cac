"""Command-line interface.

Subcommands:
  analyze    decide stability of the tangent bundle for a fan file + divisor
  construct  emit a fan file for one of the stock constructions
  catalog    verdict table for the ten rank-two-or-less Fano fourfolds
  scan       CSV sweep of Hirzebruch polarizations
  oracle     check a lambda-vector for a rank-one equivariant realization

All exact numbers are printed as reduced fractions "p/q" so output is
byte-identical across runs and platforms.  Exit codes: 0 success, 2 invalid
fan, 3 non-ample divisor, 4 parse/usage error (including an unwritable
``--out``), 5 invalid lambda data.

The argument parser is built once per process, on the first ``main`` call,
and reused by every later call.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from itertools import product

from .charts import rank_one_exists
from .errors import (
    BadDimension,
    BadTwist,
    DimMismatch,
    InvalidFan,
    InvalidLambda,
    NonAmple,
    ParseError,
    TooManyRays,
)
from .fan import (
    Fan,
    catalog_fano4,
    construct_hirzebruch,
    construct_product,
    construct_proj_split,
    construct_projective_space,
    make_fan,
    validate_fan,
)
from .lattice import row_hermite
from .polytope import anticanonical, divisor
from .stability import MAX_RAYS, Stability, certificate, decide


def _decimal(x: int) -> str:
    """``str(x)``; ParseError when x has more digits than Python will print."""
    try:
        return str(x)
    except ValueError as e:
        raise ParseError(str(e)) from None


def _frac_str(q) -> str:
    return f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"


def _parse_fraction(token: str) -> Fraction:
    """An integer, ``a/b`` or a decimal; exponent notation is refused, since
    ``1e1000000`` would cost its digits in arithmetic before any check."""
    if "e" in token.lower():
        raise ParseError(f"bad rational {token!r}: exponent notation is not accepted")
    try:
        return Fraction(token.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational {token!r}: {e}") from None


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} {text!r} is not an integer") from None


def load_fan_file(path: str) -> Fan:
    """Read and validate a fan file: {"dim": n, "rays": [...], "max_cones": [...]}.

    Every number must be a JSON integer; ``Fan`` rejects the rest."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read fan file: {e}") from None
    except ValueError as e:  # bad JSON or UTF-8, or an integer past the digit limit
        raise ParseError(f"fan file is not valid JSON: {e}") from None
    if not isinstance(raw, dict) or not {"dim", "rays", "max_cones"} <= raw.keys():
        raise ParseError('fan file needs keys "dim", "rays", "max_cones"')
    try:
        f = make_fan(raw["dim"], raw["rays"], raw["max_cones"])
    except TypeError as e:
        raise ParseError(f"malformed fan file: {e}") from None
    return validate_fan(f)


def fan_to_dict(f: Fan) -> dict:
    return {
        "dim": f.dim,
        "rays": [list(r) for r in f.rays],
        "max_cones": [list(c) for c in f.max_cones],
    }


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise ParseError(f"cannot write output: {e}") from None


def report_for(a, max_rays: int = MAX_RAYS) -> dict:
    """Stability report for a divisor on the validated fan it carries;
    raises NonAmple when the divisor is not ample."""
    v = decide(a.fan, a, max_rays=max_rays)
    cert = certificate(v)
    cert_dict = None
    if cert is not None:
        cert_dict = {
            "rank": cert.rank,
            "lambda_matrix": [list(row) for row in cert.lambda_matrix],
            "subspace_basis": [list(b) for b in cert.subspace_basis],
            "slope": _frac_str(cert.slope),
        }
    return {
        "fan": fan_to_dict(a.fan),
        "divisor": [_frac_str(c) for c in a.coeffs],
        "ample": True,
        "volumes": [_frac_str(x) for x in v.volumes.values],
        "mu_tx": _frac_str(v.mu_tx),
        "verdict": v.status.value,
        "certificate": cert_dict,
        "notes": list(v.notes),
    }


def cmd_analyze(args) -> int:
    f = load_fan_file(args.fan)
    if args.anticanonical:
        a = anticanonical(f)
    else:
        a = divisor(f, tuple(_parse_fraction(t) for t in args.divisor.split(",")))
    report = report_for(a, max_rays=args.max_rays)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def _parse_factor(spec: str) -> Fan:
    kind, _, arg = spec.partition(":")
    if not arg:
        raise ParseError(f"factor {spec!r} must look like pn:2 or hirzebruch:1")
    k = _parse_int(arg, "factor parameter")
    if kind == "pn":
        return construct_projective_space(k)
    if kind == "hirzebruch":
        return construct_hirzebruch(k)
    raise ParseError(f"unknown factor kind {kind!r} (use pn or hirzebruch)")


def cmd_construct(args) -> int:
    if args.kind == "pn":
        if len(args.params) != 1:
            raise ParseError("pn takes exactly one parameter: the dimension")
        f = construct_projective_space(_parse_int(args.params[0], "dimension"))
    elif args.kind == "hirzebruch":
        if len(args.params) != 1:
            raise ParseError("hirzebruch takes exactly one parameter: the twist")
        f = construct_hirzebruch(_parse_int(args.params[0], "twist"))
    elif args.kind == "proj-split":
        if args.base is None or args.twists is None:
            raise ParseError("proj-split needs --base and --twists")
        twists = tuple(_parse_int(t, "twist") for t in args.twists.split(","))
        f = construct_proj_split(args.base, twists)
    else:  # product
        if len(args.params) != 2:
            raise ParseError("product takes exactly two factor specs, e.g. pn:1 pn:3")
        f = construct_product(_parse_factor(args.params[0]), _parse_factor(args.params[1]))
    _emit(json.dumps(fan_to_dict(f), indent=2) + "\n", args.out)
    return 0


def catalog_rows() -> list[dict]:
    rows = []
    for name, f in catalog_fano4():
        v = decide(f, anticanonical(f))
        rank = None if v.status is Stability.STABLE else v.best.rank
        rows.append({"name": name, "verdict": v.status.value, "rank": rank})
    return rows


def cmd_catalog(args) -> int:
    rows = catalog_rows()
    if args.json:
        _emit(json.dumps(rows, indent=2) + "\n", args.out)
        return 0
    lines = [f"{'name':<4}  {'verdict':<11}  destabilizer rank"]
    for row in rows:
        rank = "-" if row["rank"] is None else str(row["rank"])
        lines.append(f"{row['name']:<4}  {row['verdict']:<11}  {rank}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition(":")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if sep else lo_i
    except ValueError:
        raise ParseError(f"bad range {text!r}: use LO:HI or a single integer") from None
    if hi_i < lo_i:
        raise ParseError(f"bad range {text!r}: upper bound below lower bound")
    return range(lo_i, hi_i + 1)


def cmd_scan(args) -> int:
    f = construct_hirzebruch(args.m)
    ranges = [_parse_range(getattr(args, k)) for k in ("a1", "a2", "a3", "a4")]
    lines = ["a1,a2,a3,a4,a,b,ample,verdict"]
    for a1, a2, a3, a4 in product(*ranges):
        a = a1 + a3 - args.m * a2
        b = a2 + a4
        d = divisor(f, (a1, a2, a3, a4))
        try:
            ample, verdict = True, decide(f, d).status.value
        except NonAmple:
            ample, verdict = False, ""
        numbers = ",".join(map(_decimal, (a1, a2, a3, a4, a, b)))
        lines.append(f"{numbers},{str(ample).lower()},{verdict}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_oracle(args) -> int:
    f = load_fan_file(args.fan)
    lam = tuple(_parse_int(t, "lambda entry") for t in args.lam.split(","))
    witness = rank_one_exists(f, lam)
    poles = [f.rays[i] for i, x in enumerate(lam) if x == -1]
    span_dim = len(row_hermite(poles))
    expected = span_dim <= 1
    lines = [
        f"witness: {witness if witness is not None else 'non-existent'}",
        f"span dim: {span_dim} ({'witness expected' if expected else 'no witness expected'})",
        "AGREE" if (witness is not None) == expected else "DISAGREE",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's one parser, built on first use and shared by every ``main``
    call: ``parse_args`` never changes it and returns a new namespace."""
    parser = argparse.ArgumentParser(
        prog="toricstab",
        description="Exact stability analysis of toric tangent bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="decide stability for a fan file + divisor")
    p.add_argument("fan", help="path to a fan JSON file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--anticanonical", action="store_true", help="use the anticanonical divisor")
    g.add_argument("--divisor", help="comma-separated coefficients, one per ray")
    p.add_argument("--max-rays", type=int, default=MAX_RAYS, help="ray-count guardrail")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="emit a fan file for a stock construction")
    p.add_argument("kind", choices=("pn", "hirzebruch", "proj-split", "product"))
    p.add_argument("params", nargs="*", help="positional parameters (see each kind)")
    p.add_argument("--base", type=int, help="proj-split: base dimension")
    p.add_argument("--twists", help="proj-split: comma-separated twists")
    p.add_argument("--out", help="write the fan file here instead of stdout")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("catalog", help="verdicts for the ten stock Fano fourfolds")
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("scan", help="CSV sweep over Hirzebruch polarizations")
    p.add_argument("--m", type=int, required=True, help="Hirzebruch twist")
    p.add_argument("--a1", required=True, help="range LO:HI for the first coefficient")
    p.add_argument("--a2", required=True, help="range LO:HI for the second coefficient")
    p.add_argument("--a3", required=True, help="range LO:HI for the third coefficient")
    p.add_argument("--a4", required=True, help="range LO:HI for the fourth coefficient")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("oracle", help="rank-one realization check for a lambda-vector")
    p.add_argument("fan", help="path to a fan JSON file")
    p.add_argument("--lam", required=True, help="comma-separated lambda entries, one per ray")
    p.add_argument("--out", help="write here instead of stdout")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 4
    try:
        return args.func(args)
    except InvalidFan as e:
        print(f"error: invalid fan: {e}", file=sys.stderr)
        return 2
    except NonAmple as e:
        print(f"error: non-ample divisor: {e}", file=sys.stderr)
        return 3
    except InvalidLambda as e:
        print(f"error: invalid lambda data: {e}", file=sys.stderr)
        return 5
    except (ParseError, DimMismatch, BadDimension, BadTwist, TooManyRays) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
