"""Square-root spiral toolkit.

Reconstructs the spiral of Theodorus exactly, represents its prime-rich
arms as integer quadratics, and verifies the measurable claims about them:
geometric constants, second-difference arm systems, residue and digit-sum
periodicities, prime-factor periods, density spot checks, and the
number-spiral / Ulam-spiral correspondences.

The public names below are imported from their module on first access
(PEP 562), so ``import rootspiral`` loads no submodule and a CLI process
compiles only the modules its command uses.
"""

import importlib

# module -> the public names it exports at package level
_EXPORTS = {
    "factorlab": (
        "admissible_primes", "density_scan", "detect_arm_chain", "factorize", "is_prime",
        "root_classes", "same_splitting",
    ),
    "fixtures": ("load_fixtures",),
    "numberspiral": (
        "composite_factor", "composite_params", "ns_polar", "pronic_triangle_angle",
        "sqrt_spiral_counterparts", "ulam_coord",
    ),
    "quad": ("ArmSystem", "QuadPoly", "decimate", "newton_fit", "shift"),
    "residues": (
        "digit_sum", "digit_sum_gaps", "divisibility_positions", "residue_cycle", "six_classify",
    ),
    "spiral": (
        "C2", "SpiralPoint", "angle_between", "angle_increment", "estimate_c2", "polar_of",
        "square_arm_angle", "total_angle", "winding_gap",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:  # rootspiral.spiral etc. without importing the submodule first
        return importlib.import_module(f".{name}", __name__)
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
