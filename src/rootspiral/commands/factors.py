"""rootspiral factors: admissible primes and factor periods of an arm."""

import argparse

from .. import factorlab
from ..report import Report
from . import fixture_set, resolve_poly, window_bounds


def run(args: argparse.Namespace) -> Report:
    fx = fixture_set(args)
    name, poly = resolve_poly(fx, args.arm)
    report = Report(
        command="factors",
        inputs={"arm": name, "poly": str(poly), "bound": args.bound, "window": args.window},
    )
    adm = factorlab.admissible_primes(poly, args.bound)
    report.data["discriminant"] = adm.discriminant
    report.data["admissible"] = list(adm.primes)
    rows = ["prime,roots,gaps"]
    for q in adm.primes:
        rc = factorlab.root_classes(poly, q)
        rows.append(f"{q},{' '.join(map(str, sorted(rc.roots)))},{' '.join(map(str, rc.gaps))}")
    report.data["root_classes_csv"] = "\n".join(rows)
    report.add("admissible-primes", True, f"{len(adm.primes)} primes <= {args.bound}")
    if args.compare is not None:
        other_name, other = resolve_poly(fx, args.compare)
        comp = factorlab.same_splitting(poly, other, args.bound)
        report.inputs["compare"] = other_name
        report.add(
            "same-splitting",
            None,
            f"{name} vs {other_name}: "
            + ("identical" if comp.equal else f"first disagreement at {comp.witness}"),
            value=comp.equal,
        )
    if args.window:
        rows = ["index,value,smallest_prime_factor"]
        for rec in factorlab.density_scan(poly, *window_bounds(args.window)).records:
            spf = "prime" if rec.prime else rec.factorization.smallest if rec.factorization else ""
            rows.append(f"{rec.x},{rec.value},{spf}")
        report.data["occurrence_csv"] = "\n".join(rows)
    return report
