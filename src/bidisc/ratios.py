"""The named critical radii at which the packing landscape changes.

Each entry pairs a small-to-large radius ratio with its integer minimal
polynomial (ascending coefficients) and a stored float bracket, 2^-30 wide,
around the root that is the ratio.  Two exact checks prove the bracket holds
exactly one simple root: the polynomial has strictly opposite signs at the
endpoints (evaluated over rationals), and an interval enclosure of its
derivative over the bracket excludes 0.  The certified value then comes from
exact-sign bisection of the bracket, never from a decimal literal.
"""

from functools import lru_cache

from .intervals import Interval
from .polynomials import Polynomial, refine_root

# Distinct (name, tol) enclosures kept; callers use a handful of tols
_CACHE_SIZE = 64

# name -> (ascending integer coefficients, bracket holding exactly one root)
RATIO_TABLE: dict[str, tuple[tuple[int, ...], tuple[float, float]]] = {
    "r1": ((9, -8, -10, 0, 1), (0.6375559763982892, 0.6375559773296118)),
    "ra": ((1, 4, -2, -12, 1), (0.619914404116571, 0.6199144050478935)),
    "r2": ((9, -120, 388, -24, -482, -232, -44, -8, 1),
           (0.5451510418206453, 0.5451510427519679)),
    "r3": ((-1, -2, 3, 8), (0.5332964165136218, 0.5332964174449444)),
    "r4": ((-1, 2, 1), (0.4142135614529252, 0.4142135623842478)),
    "r5": ((9, -12, -26, -12, 9), (0.3861061045899987, 0.3861061055213213)),
    "rb": ((1, -1, -5, 1), (0.36910238582640886, 0.36910238675773144)),
    "r6": ((1, 4, -10, -28, 1), (0.34919818583875895, 0.3491981867700815)),
    "r7": ((-1, 3, 2), (0.2807764057070017, 0.28077640663832426)),
    "rc": ((1, -4, -2, -4, 1), (0.21684533450752497, 0.21684533543884754)),
    "r8": ((-1, 6, 3), (0.1547005381435156, 0.15470053907483816)),
    "r9": ((1, -10, 1), (0.1010205140337348, 0.10102051496505737)),
}


def ratio_polynomial(name: str) -> Polynomial:
    coeffs, _ = RATIO_TABLE[name]
    return Polynomial(coeffs)


@lru_cache(maxsize=_CACHE_SIZE)
def ratio_interval(name: str, tol: float = 1e-12) -> Interval:
    """Certified enclosure of the named ratio, width <= tol.

    Raises ValueError if the stored bracket fails either check.
    """
    coeffs, (lo, hi) = RATIO_TABLE[name]
    p = Polynomial(coeffs)
    bracket = Interval(lo, hi)
    if p.eval_exact(lo) * p.eval_exact(hi) >= 0:
        raise ValueError(f"{name} polynomial does not change sign across {bracket!r}")
    if 0.0 in p.derivative().eval_interval(bracket):
        raise ValueError(f"{name} polynomial may have several roots in {bracket!r}: "
                         f"its derivative is not bounded away from 0 there")
    return refine_root(p, bracket, tol)


def ratio(name: str) -> float:
    return ratio_interval(name).mid
