"""rootspiral verify-tables: the coefficient rules and mod-10 periods of the table arms."""

import argparse

from .. import residues
from ..fixtures import TABLE_PREFIXES, FixtureSet
from ..quad import ArmSystem, coefficient_rules_check
from ..report import Report
from . import SystemExit2, fixture_set


def _verify_system(report: Report, system: ArmSystem) -> int:
    """Check each arm's rules and mod-10 period, then the system's rules; returns the arms passed.

    The loader has already checked fit 1 against the six terms, so the rules
    hold for an arm exactly when each later fit is the one before shifted by 1.
    """
    rules = coefficient_rules_check(system)
    passed = 0
    for arm in system.arms:
        woes = [f"{f.rule}: {f.detail}" for f in rules.failures if f.arm == arm.name]
        period = residues.residue_cycle(arm.poly, 10).period
        if period not in (1, 5):
            woes.append(f"mod-10 period {period}")
        report.add(f"{system.name}/{arm.name}", not woes, "; ".join(woes))
        passed += not woes
    report.add(
        f"{system.name} coefficient rules",
        rules.ok,
        "; ".join(f"{f.arm}:{f.rule}" for f in rules.failures),
    )
    return passed


def _check_euler_split(report: Report, fx: FixtureSet) -> None:
    """The split of x^2+x+41 into three arms partitions its values."""
    from ..numberspiral import sqrt_spiral_counterparts  # only table 7 needs it

    euler = fx.find_arm("NS-P41/P+41")[1].fits[1]  # x^2 + x + 41
    arms = sqrt_spiral_counterparts(euler)
    union = sorted(v for arm in arms for t in range(20) for v in [arm(t)])
    partition_ok = union == [euler(x) for x in range(60)]
    printed = [fx.find_arm(f"SQ-P41/P+41{letter}")[1].fits for letter in "ABC"]
    fits_ok = arms[0] == printed[0][1] and arms[1] == printed[1][1] and arms[2] == printed[2][2]
    report.add(
        "euler-split",
        partition_ok and fits_ok,
        "three decimated arms partition the sequence and match the printed fits",
    )


def run(args: argparse.Namespace) -> Report:
    fx = fixture_set(args)
    report = Report(command="verify-tables", inputs={"which": args.which})
    tables = tuple(TABLE_PREFIXES) if args.which == "all" else (args.which,)
    for which in tables:
        systems = fx.table_systems(which)
        if not systems:
            raise SystemExit2(f"fixture set has no table {which} arms")
        arms = sum(len(s.arms) for s in systems)
        passed = sum(_verify_system(report, system) for system in systems)
        report.data[f"table {which}"] = f"{passed}/{arms} arms pass"
        if which == "7":
            _check_euler_split(report, fx)
    return report
