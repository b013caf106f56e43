"""rootspiral detect: a one-wind arm chain from a seed."""

import argparse

from .. import factorlab
from ..report import Report


def run(args: argparse.Namespace) -> Report:
    report = Report(
        command="detect", inputs={"seed": args.seed_n, "d2": args.d2, "length": args.length}
    )
    try:
        chain = factorlab.detect_arm_chain(args.seed_n, args.d2, args.length)
    except factorlab.ChainNotFoundError as exc:
        report.add("chain", False, str(exc))
        return report
    report.data["values"] = list(chain.values)
    report.data["delta1"] = chain.delta1
    report.data["drifts"] = [round(d, 6) for d in chain.drifts]
    report.data["candidates"] = [
        {"delta1": c.delta1, "score": round(c.score, 6), "values": list(c.values)}
        for c in chain.candidates
    ]
    report.add("chain", True, f"first step {chain.delta1}, {len(chain.candidates)} candidates")
    return report
