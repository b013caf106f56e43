"""Loader for the shipped arm fixtures (data/arms.tsv).

The file carries the transcribed polynomial tables (one record per arm
with all four printed fits and the first six terms), the spot-check window
definitions of the prime-share table, and the legible rows of the K5
intersection-point factor column.  Records are data, never code.
Each arm record is checked as it is read: rotation P or N, a = d2/2, six
terms, fit 1 positive and increasing from x = 1 (a >= 1, f(2) - f(1) =
3a + b >= 1 and f(1) >= 1, as every shipped arm is), fit 1 reproducing
every term, and no second record for the same SYSTEM/ARM; each window is
at most MAX_SCAN terms long, and each window and k5ref record names an arm
the file defines.  A record that breaks a rule or holds a non-integer
number raises FixtureError with its line number; a file that cannot be
read or decoded raises FixtureError without one.
"""

from functools import lru_cache
from importlib.resources import files
from typing import NamedTuple

from .quad import Arm, ArmSystem, QuadPoly

# the prime-share table's spot-check windows: the start of each arm, then the
# first value reaching each target
WINDOW_LABELS = ("start", "2.5e6", "2.5e7", "2.5e8", "2.5e9")

# Most terms one density window or factors --window may scan: near 2^63 Pollard
# rho costs ~1 ms a term, so a full window there takes 9-13 s (2-vCPU VM).
MAX_SCAN = 10**4

# the source tables and the system-name prefixes of their arms
TABLE_PREFIXES = {
    "6A": ("P18-",),
    "6B": ("N20-", "P20-"),
    "6C": ("N22-",),
    "7": ("NS-P41", "SQ-P41"),
}


class WindowSpec(NamedTuple):
    """One spot-check window: scan [start_x, start_x + length) of an arm."""

    system: str
    arm: str
    label: str  # one of WINDOW_LABELS
    start_x: int
    length: int


class K5Factor(NamedTuple):
    """A pinned factorization row of the K5 intersection table."""

    x: int
    value: int
    factors: str  # "p^e*..." form


class FixtureSet(NamedTuple):
    systems: tuple[ArmSystem, ...]  # table arms, file order
    extras: tuple[ArmSystem, ...]  # B33 / K5 style derived records
    windows: tuple[WindowSpec, ...]
    k5_factors: tuple[K5Factor, ...]

    def table_systems(self, which: str) -> tuple[ArmSystem, ...]:
        """Systems belonging to one source table: 6A, 6B, 6C or 7."""
        prefixes = TABLE_PREFIXES.get(which)
        if prefixes is None:
            raise FixtureLookupError(
                f"unknown table {which!r}; expected one of {sorted(TABLE_PREFIXES)}"
            )
        return tuple(s for s in self.systems if s.name.startswith(prefixes))

    def find_arm(self, name: str) -> tuple[ArmSystem, Arm]:
        """Resolve an arm by 'B3', 'P20-G1' or 'P20-G/G1'.

        Bare names must be unique across all systems (extras included);
        ambiguous ones need the system prefix.
        """
        name = name.strip()
        pools = self.systems + self.extras
        if "/" in name:
            sysname, armname = name.split("/", 1)
            for system in pools:
                if system.name == sysname:
                    for arm in system.arms:
                        if arm.name == armname:
                            return system, arm
            raise FixtureLookupError(f"no arm {armname!r} in system {sysname!r}")
        hits = []
        for system in pools:
            prefix = system.name.split("-")[0]  # "P20-G" -> "P20", so "P20-G1" works
            for arm in system.arms:
                if name in (arm.name, f"{prefix}-{arm.name}"):
                    hits.append((system, arm))
        if not hits:
            raise FixtureLookupError(f"unknown arm {name!r}")
        if len(hits) > 1:
            named = sorted(f"{s.name}/{a.name}" for s, a in hits)
            raise FixtureLookupError(f"ambiguous arm {name!r}: matches {named}")
        return hits[0]


class FixtureError(ValueError):
    """A malformed record, at line lineno; or, with lineno None and the OS or
    codec message, a file the loader cannot read or decode."""

    def __init__(self, lineno: int | None, message: str) -> None:
        super().__init__(message if lineno is None else f"line {lineno}: {message}")
        self.lineno = lineno


class FixtureLookupError(KeyError):
    """A table, system or arm name the fixture set does not define."""


def _parse_arm_record(fields: list[str]) -> tuple[str, str, int, Arm]:
    """(system, rotation, d2, arm) of one arm or extra record.

    Raises ValueError (int() included) for any field the format rejects.
    """
    if len(fields) != 15:
        raise ValueError(f"arm record needs 15 fields, got {len(fields)}")
    _, system, armname, rotation, d2s, a_s = fields[:6]
    d2, a = int(d2s), int(a_s)
    coeffs = [int(v) for v in fields[6:14]]
    terms = tuple(int(t) for t in fields[14].split(","))
    if rotation not in ("P", "N"):
        raise ValueError(f"{system}/{armname}: rotation must be P or N, got {rotation!r}")
    if 2 * a != d2:
        raise ValueError(f"{system}/{armname}: a={a} does not match d2={d2}")
    if len(terms) != 6:
        raise ValueError(f"{system}/{armname}: needs 6 terms, got {len(terms)}")
    fits = tuple(QuadPoly(a, coeffs[2 * i], coeffs[2 * i + 1]) for i in range(4))
    if a < 1 or 3 * a + fits[0].b < 1 or fits[0](1) < 1:
        raise ValueError(
            f"{system}/{armname}: fit 1 is {fits[0]}, not positive and increasing from x = 1"
        )
    for x, term in enumerate(terms, start=1):
        if fits[0](x) != term:
            raise ValueError(f"{system}/{armname}: term {x} is {term}, fit 1 gives {fits[0](x)}")
    return system, rotation, d2, Arm(name=armname, fits=fits, terms=terms)


def _parse_window(fields: list[str]) -> WindowSpec:
    """One window record; raises ValueError (int() included) for any field the format rejects."""
    if len(fields) != 6:
        raise ValueError(f"window record needs 6 fields, got {len(fields)}")
    _, system, arm, label, start_s, length_s = fields
    start_x, length = int(start_s), int(length_s)
    if label not in WINDOW_LABELS:
        raise ValueError(f"window label must be one of {'|'.join(WINDOW_LABELS)}, got {label!r}")
    if start_x < 1:
        raise ValueError(f"window start_x must be >= 1 (arms are indexed from 1), got {start_x}")
    if length < 1:
        raise ValueError(f"window length must be >= 1, got {length}")
    if length > MAX_SCAN:
        raise ValueError(f"window length must be <= {MAX_SCAN}, got {length}")
    return WindowSpec(system=system, arm=arm, label=label, start_x=start_x, length=length)


def parse_fixtures(text: str) -> FixtureSet:
    # system name -> (d2, rotation, arms) for "arm" and "extra" records, in file order
    books: dict[str, dict[str, tuple[int, str, list[Arm]]]] = {"arm": {}, "extra": {}}
    defined: dict[tuple[str, str], int] = {}  # (system, arm) -> the line defining it
    windows: list[WindowSpec] = []
    k5: list[K5Factor] = []
    # (line, kind, system, arm) of each window and k5ref record, checked once all arms are read
    named: list[tuple[int, str, str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        kind = fields[0]
        try:
            if kind in books:
                system, rotation, d2, arm = _parse_arm_record(fields)
                first = defined.setdefault((system, arm.name), lineno)
                if first != lineno:
                    raise ValueError(f"arm {system}/{arm.name} is already defined on line {first}")
                entry = books[kind].setdefault(system, (d2, rotation, []))
                if entry[:2] != (d2, rotation):
                    raise ValueError(f"system {system} changes d2/rotation mid-file")
                entry[2].append(arm)
            elif kind == "window":
                windows.append(_parse_window(fields))
                named.append((lineno, kind, *fields[1:3]))
            elif kind == "k5ref":
                if len(fields) != 6:
                    raise ValueError(f"k5ref record needs 6 fields, got {len(fields)}")
                k5.append(K5Factor(x=int(fields[3]), value=int(fields[4]), factors=fields[5]))
                named.append((lineno, kind, *fields[1:3]))
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except ValueError as exc:  # a bad integer field or a broken record rule
            raise FixtureError(lineno, str(exc)) from None
    for lineno, kind, system, arm in named:
        if (system, arm) not in defined:
            raise FixtureError(lineno, f"{kind} names arm {system}/{arm}, which is not defined")
    systems, extras = (
        tuple(ArmSystem(name, d2, rot, tuple(arms)) for name, (d2, rot, arms) in book.items())
        for book in (books["arm"], books["extra"])
    )
    return FixtureSet(
        systems=systems, extras=extras, windows=tuple(windows), k5_factors=tuple(k5)
    )


def fixture_text() -> str:
    return files("rootspiral").joinpath("data/arms.tsv").read_text(encoding="utf-8")


@lru_cache(maxsize=4)
def load_fixtures(path: str | None = None) -> FixtureSet:
    """The shipped fixture set, or one parsed from an alternate file.

    Raises FixtureError for a malformed record or an unreadable file.
    """
    if path is None:
        return parse_fixtures(fixture_text())
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FixtureError(None, str(exc)) from exc
    return parse_fixtures(text)
