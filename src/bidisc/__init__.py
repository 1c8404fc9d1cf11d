"""Certified density bounds for plane packings by discs of two sizes.

The package covers both halves of the story: constructive lower bounds from
periodic packings built by explicit recipes, and rigorous upper bounds from
interval-arithmetic certifiers driven by a branch and bound harness.
"""

from .bounds import (BLIND_MIN_RATIO, BoundSample, delta1, delta1_interval,
                     florian_angles, florian_bound,
                     lipschitz_envelope, lipschitz_slope, r_blind_interval,
                     samples_from_csv, suspicious_samples)
from .errors import (BidiscError, DomainError, InvalidPacking, NoConvergence,
                     NoSolution, RecipeError)
from .flows import (ConstrainedRecipe, FlowRecipe, SequentialRecipe,
                    builtin_recipes, eval_flow, find_crossings, interstitial,
                    load_recipe, lower_bound_curve, recipe_from_dict)
from .geometry import (Disc, FundamentalDomain, Violation, density, stick,
                       validate, validate_many)
from .harness import TraceNode, certify_interval, make_certifier, sweep
from .intervals import Interval, pi_interval
from .polynomials import Polynomial
from .ratios import RATIO_TABLE, ratio, ratio_interval, ratio_polynomial
from .solve import newton_solve

__version__ = "0.1.0"

__all__ = [
    "BLIND_MIN_RATIO", "BidiscError", "BoundSample", "ConstrainedRecipe",
    "Disc", "DomainError", "FlowRecipe",
    "FundamentalDomain", "Interval", "InvalidPacking",
    "NoConvergence", "NoSolution", "Polynomial",
    "RATIO_TABLE", "RecipeError", "SequentialRecipe",
    "TraceNode", "Violation",
    "builtin_recipes", "certify_interval", "delta1",
    "delta1_interval", "density",
    "eval_flow", "find_crossings", "florian_angles",
    "florian_bound", "interstitial",
    "lipschitz_envelope", "lipschitz_slope", "load_recipe",
    "lower_bound_curve", "make_certifier", "newton_solve", "pi_interval",
    "r_blind_interval", "ratio", "ratio_interval", "ratio_polynomial",
    "recipe_from_dict", "samples_from_csv",
    "stick", "suspicious_samples", "sweep", "validate", "validate_many",
]
