"""Brute-force oracles that more than one test module imports."""

from rootspiral.quad import QuadPoly


def brute_roots(p: QuadPoly, q: int, stop: int | None = None) -> list[int]:
    """Every t in range(stop), range(q) by default, with p(t) divisible by q, ascending."""
    return [t for t in range(q if stop is None else stop) if p(t) % q == 0]
