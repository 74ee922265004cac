"""Output checks that do not trust the code under test.

Every ample report is compared with the independent reference in
``reference.py`` and re-checked from the report alone: the rays carrying
-1 in the first lambda-row must be exactly the rays in the span of
``subspace_basis``, the certificate slope must be (n-1)! * sum(vol over
those rays) / rank, ``mu_tx`` must be (n-1)! * sum(vol) / n, and the verdict
must follow from slope against mu_tx.  Golden-derived requests are also
compared with ``golden_cases.json``; every compared field is invariant under
the change of basis and the divisor shift the workload applies.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

import reference


def _frac(x) -> str:
    q = Fraction(x)
    return f"{q.numerator}/{q.denominator}"


def report_problems(rep: dict, op, ref: reference.Verdict) -> list[str]:
    """Problems with one ample report (``analyze`` JSON or a ``sweep`` result)."""
    problems = []

    def expect(what, want, got):
        if want != got:
            problems.append(f"{what}: expected {want!r}, got {got!r}")

    n = len(op.rays[0])
    scale = Fraction(factorial(n - 1))
    expect("divisor", [_frac(c) for c in op.coeffs], rep["divisor"])
    expect("ample", True, rep["ample"])
    if "volumes" in rep:
        expect("volumes", [_frac(v) for v in ref.volumes], rep["volumes"])
        vols = [Fraction(v) for v in rep["volumes"]]
        expect("mu_tx from the report's volumes", _frac(scale * sum(vols) / n), rep["mu_tx"])
    else:
        vols = ref.volumes
    expect("mu_tx", _frac(ref.mu_tx), rep["mu_tx"])
    expect("verdict", ref.status, rep["verdict"])
    cert = rep["certificate"]
    if rep["verdict"] == "stable" or cert is None:
        expect("certificate", None, cert)
    else:
        rank = cert["rank"]
        rays_in = tuple(i for i, x in enumerate(cert["lambda_matrix"][0]) if x == -1)
        expect("certificate rank", ref.rank, rank)
        expect("certificate rays_in", ref.rays_in, rays_in)
        expect("certificate slope", _frac(ref.slope), cert["slope"])
        expect("lambda_matrix rows", rank, len(cert["lambda_matrix"]))
        basis = [tuple(b) for b in cert["subspace_basis"]]
        expect("subspace_basis size", rank, len(basis))
        rows = reference.echelon(basis)
        expect("subspace_basis rank", rank, len(rows))
        spanned = tuple(i for i, ray in enumerate(op.rays) if reference.in_span(rows, ray))
        expect("rays with -1 against the span of subspace_basis", spanned, rays_in)
        slope = scale * sum(vols[i] for i in rays_in) / rank
        expect("slope from the report's volumes", _frac(slope), cert["slope"])
        mu = Fraction(rep["mu_tx"])
        implied = "stable" if slope < mu else "semistable" if slope == mu else "unstable"
        expect("verdict from slope against mu_tx", implied, rep["verdict"])
    case = op.golden
    if case is not None:
        if case.volumes is not None:
            expect("golden volumes", [_frac(v) for v in case.volumes], rep.get("volumes"))
        expect("golden mu_tx", _frac(case.mu_tx), rep["mu_tx"])
        expect("golden verdict", case.verdict, rep["verdict"])
        got = None
        if cert is not None:
            rays_in = tuple(i for i, x in enumerate(cert["lambda_matrix"][0]) if x == -1)
            got = (cert["rank"], rays_in, cert["slope"])
        want = None
        if case.certificate_rank is not None:
            want = (case.certificate_rank, case.certificate_rays, _frac(case.certificate_slope))
        expect("golden certificate (rank, rays_in, slope)", want, got)
    return problems


def analyze_problems(op, code: int, out: str, ref: reference.Verdict) -> list[str]:
    if not op.expect_ample:
        if ref.ample:
            return ["set-up chose an ample divisor for a non-ample request"]
        return [] if (code, out) == (3, "") else [f"non-ample: expected exit 3 and no output, "
                                                  f"got exit {code} and {len(out)} bytes"]
    if code != 0:
        return [f"exit {code}"]
    try:
        rep = json.loads(out)
    except json.JSONDecodeError as e:
        return [f"report is not JSON: {e}"]
    problems = report_problems(rep, op, ref)
    fan = {"dim": len(op.rays[0]), "rays": [list(r) for r in op.rays],
           "max_cones": [list(c) for c in op.cones]}
    if rep["fan"] != fan:
        problems.append("fan differs from the request's fan file")
    return problems


def sweep_report(result, coeffs) -> dict:
    """The ``analyze``-style fields of one library-API result."""
    if result is None:
        return {"divisor": [_frac(c) for c in coeffs], "ample": False}
    v, cert = result
    rep = {"divisor": [_frac(c) for c in coeffs], "ample": True, "mu_tx": _frac(v.mu_tx),
           "verdict": v.status.value, "certificate": None}
    if v.status.value != "stable" and cert is not None:
        rep["certificate"] = {
            "rank": cert.rank,
            "lambda_matrix": [list(row) for row in cert.lambda_matrix],
            "subspace_basis": [list(b) for b in cert.subspace_basis],
            "slope": _frac(cert.slope),
        }
    return rep


def sweep_problems(op, rep: dict, ref: reference.Verdict) -> list[str]:
    if rep["ample"] != ref.ample:
        return [f"ample: expected {ref.ample}, got {rep['ample']}"]
    return report_problems(rep, op, ref) if ref.ample else []


def oracle_problems(op, code: int, out: str) -> list[str]:
    if code != 0:
        return [f"exit {code}"]
    lines = out.splitlines()
    poles = [op.rays[i] for i, x in enumerate(op.lam) if x == -1]
    dim = reference.rank(poles) if poles else 0
    expected = "witness expected" if dim <= 1 else "no witness expected"
    want = [f"span dim: {dim} ({expected})", "AGREE"]
    if lines[1:] != want:
        return [f"expected {want!r} after the witness line, got {lines[1:]!r}"]
    if (lines[0] == "witness: non-existent") != (dim > 1):
        return [f"witness line {lines[0]!r} for span dim {dim}"]
    return []
