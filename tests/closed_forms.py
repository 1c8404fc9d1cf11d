"""Closed-form density curves of the two built-in recipes.

The reference densities that ``flow-841-mid`` and ``flow-r6-1`` are tested
against, kept out of the package: no module of ``bidisc`` calls them.
``dev/refine_r6_seed.py`` cross-checks both recipes against them too.
"""

import math

from bidisc.errors import DomainError


def closed_form_841(r: float) -> float:
    """Density along the sequentially built flow, valid on its whole range.

    The formula itself is defined for every r > 0; outside the recipe's
    validity range it no longer describes a packing.
    """
    if r <= 0.0:
        raise DomainError("ratio must be positive")
    return (math.pi * (r * r + 1.0) * (r + 1.0) ** 4
            / (16.0 * (r + 2.0) * math.sqrt(r + 2.0) * r * math.sqrt(r)))


def closed_form_r6(r: float) -> float:
    """Density along the constrained flow, via its nested-radical form."""
    inner = 45.0 * r * r - 6.0 * r - 3.0
    if inner < 0.0:
        raise DomainError(f"inner radicand negative at r={r}")
    outer = (47.0 * r ** 4 + 84.0 * r ** 3 + 54.0 * r * r + 12.0 * r + 3.0
             - (7.0 * r ** 3 + 13.0 * r * r + 9.0 * r + 3.0) * math.sqrt(inner))
    if outer < 0.0:
        raise DomainError(f"outer radicand negative at r={r}")
    return (math.pi * (6.0 * r * r + 1.0) * math.sqrt(outer)
            / (math.sqrt(6.0) * (r ** 4 + 12.0 * r * r + 12.0 * r + 3.0)))
