"""Library edges: each argument guard raises ValueError, and empty inputs give empty answers."""

import pytest

from rootspiral import factorlab, numberspiral, quad, residues, spiral
from rootspiral.quad import QuadPoly
from rootspiral.sieve import primes_up_to

B3 = QuadPoly(9, 9, -1)

# each call, and the ValueError it raises or the value it returns
EDGES = {
    "admissible_primes bound 1": (
        lambda: factorlab.admissible_primes(B3, 1), ValueError("bound must be >= 2")),
    "same_splitting bound 1": (
        lambda: factorlab.same_splitting(B3, B3, 1), ValueError("bound must be >= 2")),
    "detect_arm_chain seed 0": (
        lambda: factorlab.detect_arm_chain(0, 18, 6), ValueError("seed must be >= 1")),
    "detect_arm_chain length 1": (
        lambda: factorlab.detect_arm_chain(17, 18, 1), ValueError("length must be >= 2")),
    "ulam_coord 0": (lambda: numberspiral.ulam_coord(0), ValueError("n must be >= 1")),
    "composite_params 1/0": (
        lambda: numberspiral.composite_params(1, 0), ValueError("denominator must be >= 1")),
    "QuadPoly.parse two coefficients": (
        lambda: QuadPoly.parse("1,2"), ValueError("expected three coefficients")),
    "newton_fit two samples": (
        lambda: quad.newton_fit(1, [1, 2]), ValueError("need exactly 3 samples")),
    "decimate m 0": (lambda: quad.decimate(B3, 0, 0), ValueError("m must be >= 1")),
    "digit_sum -1": (lambda: residues.digit_sum(-1), ValueError("n must be >= 0")),
    "divisibility_positions k 1": (
        lambda: residues.divisibility_positions(B3, 1), ValueError("k must be >= 2")),
    "six_classify 0": (lambda: residues.six_classify(0), ValueError("n must be >= 1")),
    "total_angle 0": (lambda: spiral.total_angle(0), ValueError("n must be >= 1")),
    "winding_gap 1": (lambda: spiral.winding_gap(1), ValueError("n must be >= 2")),
    "coprime_share of an empty window": (
        lambda: factorlab.density_scan(B3, 5, 5).coprime_share, 0.0),
    "primes_up_to 1": (lambda: primes_up_to(1), []),
}


@pytest.mark.parametrize("call, expected", EDGES.values(), ids=EDGES)
def test_guards_raise_and_empty_inputs_answer(call, expected):
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError, match=str(expected)):
            call()
    else:
        assert call() == expected
