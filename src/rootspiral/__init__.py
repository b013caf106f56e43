"""Square-root spiral toolkit.

Reconstructs the spiral of Theodorus exactly, represents its prime-rich
arms as integer quadratics, and verifies the measurable claims about them:
geometric constants, second-difference arm systems, residue and digit-sum
periodicities, prime-factor periods, density spot checks, and the
number-spiral / Ulam-spiral correspondences.
"""

from .factorlab import (
    admissible_primes,
    density_scan,
    detect_arm_chain,
    factorize,
    is_prime,
    root_classes,
    same_splitting,
)
from .fixtures import load_fixtures
from .numberspiral import (
    composite_factor,
    composite_params,
    ns_polar,
    offset_curve_points,
    pronic_triangle_angle,
    sqrt_spiral_counterparts,
    ulam_coord,
)
from .quad import (
    ArmSystem,
    QuadPoly,
    coefficient_rules_check,
    decimate,
    differences,
    extend,
    newton_fit,
    shift,
)
from .residues import (
    SixClass,
    digit_sum,
    divisibility_positions,
    ending_alphabet,
    residue_cycle,
    sd_profile,
    six_classify,
)
from .spiral import (
    C2,
    SpiralPoint,
    angle_between,
    angle_increment,
    delta_r,
    estimate_c2,
    polar_of,
    square_arm_angle,
    total_angle,
    total_angle_fast,
    winding_gap,
)

__version__ = "0.1.0"
