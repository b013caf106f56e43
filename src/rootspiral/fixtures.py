"""Loader for the shipped arm fixtures (data/arms.tsv).

The file carries the transcribed polynomial tables (one record per arm
with all four printed fits and the first six terms), the spot-check window
definitions of the prime-share table, and the legible rows of the K5
intersection-point factor column.  Records are data, never code; the
serializer reproduces record lines byte-identically for round-trip checks.
Each arm record is checked as it is read: rotation P or N, a = d2/2, six
terms, and fit 1 reproducing every term.  A record that breaks a rule or
holds a non-integer number raises FixtureError with its line number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib.resources import files

from .quad import Arm, ArmSystem, QuadPoly

_TABLE_PREFIXES = {
    "6A": ("P18-",),
    "6B": ("N20-", "P20-"),
    "6C": ("N22-",),
    "7": ("NS-P41", "SQ-P41"),
}


@dataclass(frozen=True)
class WindowSpec:
    """One spot-check window: scan [start_x, start_x + length) of an arm."""

    system: str
    arm: str
    label: str  # start | 2.5e6 | 2.5e7 | 2.5e8 | 2.5e9
    start_x: int
    length: int


@dataclass(frozen=True)
class K5Factor:
    """A pinned factorization row of the K5 intersection table."""

    x: int
    value: int
    factors: str  # "p^e*..." form


@dataclass(frozen=True)
class FixtureSet:
    systems: tuple[ArmSystem, ...]  # table arms, file order
    extras: tuple[ArmSystem, ...]  # B33 / K5 style derived records
    windows: tuple[WindowSpec, ...]
    k5_factors: tuple[K5Factor, ...]

    def table_systems(self, which: str) -> tuple[ArmSystem, ...]:
        """Systems belonging to one source table: 6A, 6B, 6C or 7."""
        prefixes = _TABLE_PREFIXES.get(which)
        if prefixes is None:
            raise KeyError(f"unknown table {which!r}; expected one of {sorted(_TABLE_PREFIXES)}")
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
            raise KeyError(f"no arm {armname!r} in system {sysname!r}")
        hits = []
        for system in pools:
            prefix = system.name.split("-")[0]  # "P20-G" -> "P20", so "P20-G1" works
            for arm in system.arms:
                if name in (arm.name, f"{prefix}-{arm.name}", f"{system.name}-{arm.name}"):
                    hits.append((system, arm))
        if not hits:
            raise KeyError(f"unknown arm {name!r}")
        if len(hits) > 1:
            named = sorted(f"{s.name}/{a.name}" for s, a in hits)
            raise KeyError(f"ambiguous arm {name!r}: matches {named}")
        return hits[0]


class FixtureError(ValueError):
    """Malformed fixture record; carries the offending line number."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


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
    for x, term in enumerate(terms, start=1):
        if fits[0](x) != term:
            raise ValueError(f"{system}/{armname}: term {x} is {term}, fit 1 gives {fits[0](x)}")
    return system, rotation, d2, Arm(name=armname, fits=fits, terms=terms)


def parse_fixtures(text: str) -> FixtureSet:
    # system name -> (d2, rotation, arms) for "arm" and "extra" records, in file order
    books: dict[str, dict[str, tuple[int, str, list[Arm]]]] = {"arm": {}, "extra": {}}
    windows: list[WindowSpec] = []
    k5: list[K5Factor] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        kind = fields[0]
        try:
            if kind in books:
                system, rotation, d2, arm = _parse_arm_record(fields)
                entry = books[kind].setdefault(system, (d2, rotation, []))
                if entry[:2] != (d2, rotation):
                    raise ValueError(f"system {system} changes d2/rotation mid-file")
                entry[2].append(arm)
            elif kind == "window":
                if len(fields) != 6:
                    raise ValueError(f"window record needs 6 fields, got {len(fields)}")
                windows.append(
                    WindowSpec(
                        system=fields[1],
                        arm=fields[2],
                        label=fields[3],
                        start_x=int(fields[4]),
                        length=int(fields[5]),
                    )
                )
            elif kind == "k5ref":
                if len(fields) != 6:
                    raise ValueError(f"k5ref record needs 6 fields, got {len(fields)}")
                k5.append(K5Factor(x=int(fields[3]), value=int(fields[4]), factors=fields[5]))
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except ValueError as exc:  # a bad integer field or a broken record rule
            raise FixtureError(lineno, str(exc)) from None
    systems, extras = (
        tuple(ArmSystem(name, d2, rot, tuple(arms)) for name, (d2, rot, arms) in book.items())
        for book in (books["arm"], books["extra"])
    )
    return FixtureSet(
        systems=systems, extras=extras, windows=tuple(windows), k5_factors=tuple(k5)
    )


def serialize_records(fx: FixtureSet) -> str:
    """Record lines (no comments) in canonical order; used for round-trip checks."""
    lines = []
    for kind, bundle in (("arm", fx.systems), ("extra", fx.extras)):
        for system in bundle:
            for arm in system.arms:
                flat: list[str] = []
                for fit in arm.fits:
                    flat += [str(fit.b), str(fit.c)]
                lines.append(
                    "\t".join(
                        [kind, system.name, arm.name, system.rotation, str(system.d2),
                         str(system.d2 // 2)]
                        + flat
                        + [",".join(str(t) for t in arm.terms)]
                    )
                )
    for w in fx.windows:
        lines.append("\t".join(["window", w.system, w.arm, w.label, str(w.start_x), str(w.length)]))
    for ref in fx.k5_factors:
        lines.append("\t".join(["k5ref", "N22-K", "K5", str(ref.x), str(ref.value), ref.factors]))
    return "\n".join(lines) + "\n"


def fixture_text() -> str:
    return files("rootspiral").joinpath("data/arms.tsv").read_text(encoding="utf-8")


@lru_cache(maxsize=4)
def load_fixtures(path: str | None = None) -> FixtureSet:
    """The shipped fixture set, or one parsed from an alternate file."""
    if path is None:
        return parse_fixtures(fixture_text())
    with open(path, encoding="utf-8") as fh:
        return parse_fixtures(fh.read())
