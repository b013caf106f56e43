"""The prime sieve, in a module of its own so that the plots that mark
primes load neither Miller-Rabin nor Pollard rho (factorlab)."""

import math


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a plain sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [i for i, v in enumerate(sieve) if v]
