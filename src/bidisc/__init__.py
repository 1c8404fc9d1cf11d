"""Certified density bounds for plane packings by discs of two sizes.

The package covers both halves of the story: constructive lower bounds from
periodic packings built by explicit recipes, and rigorous upper bounds from
interval-arithmetic certifiers driven by a branch and bound harness.
"""

from .bounds import (BLIND_MIN_RATIO, BoundSample, best_upper, blind_bound,
                     blind_interval, delta1, delta1_interval, florian_angles,
                     florian_bound, florian_interval, lipschitz_envelope,
                     lipschitz_slope, r_blind, samples_from_csv,
                     samples_to_csv, suspicious_samples)
from .errors import (BidiscError, DepthExceeded, DomainError,
                     InitialBoundsInvalid, InvalidPacking, NoConvergence,
                     NoSolution, RecipeError, SingularJacobian)
from .flows import (ConstrainedRecipe, DensityCurve, FlowRecipe,
                    SequentialRecipe, builtin_recipes, closed_form_841,
                    closed_form_r6, eval_flow, find_crossings,
                    interstitial, interstitial_count, load_recipe,
                    lower_bound_at, lower_bound_curve, recipe_from_dict)
from .geometry import (Disc, FundamentalDomain, Violation, density,
                       density_interval, stick, validate)
from .harness import (BlindCertifier, Certifier, FlorianCertifier, ProofTrace,
                      ThresholdCertifier, TraceNode, certify_interval,
                      find_delta, make_certifier, sweep)
from .intervals import Interval, iacos, iatan, ipow, itan, pi_interval
from .polynomials import Polynomial, refine_root
from .ratios import RATIO_TABLE, ratio, ratio_interval, ratio_polynomial
from .solve import Dual, newton_solve

__version__ = "0.1.0"

__all__ = [
    "BLIND_MIN_RATIO", "BidiscError", "BlindCertifier", "BoundSample",
    "Certifier", "ConstrainedRecipe", "DensityCurve", "DepthExceeded",
    "Disc", "DomainError", "Dual", "FlorianCertifier", "FlowRecipe",
    "FundamentalDomain", "InitialBoundsInvalid", "Interval", "InvalidPacking",
    "NoConvergence", "NoSolution", "Polynomial", "ProofTrace",
    "RATIO_TABLE", "RecipeError", "SequentialRecipe",
    "SingularJacobian", "ThresholdCertifier", "TraceNode", "Violation",
    "best_upper", "blind_bound", "blind_interval", "builtin_recipes",
    "certify_interval", "closed_form_841", "closed_form_r6", "delta1",
    "delta1_interval", "density", "density_interval",
    "eval_flow", "find_crossings", "find_delta", "florian_angles",
    "florian_bound", "florian_interval", "iacos", "iatan", "interstitial",
    "interstitial_count", "ipow", "itan", "lipschitz_envelope",
    "lipschitz_slope", "load_recipe", "lower_bound_at", "lower_bound_curve",
    "make_certifier", "newton_solve", "pi_interval", "r_blind", "ratio",
    "ratio_interval", "ratio_polynomial", "recipe_from_dict", "refine_root",
    "samples_from_csv", "samples_to_csv", "stick", "suspicious_samples",
    "sweep", "validate",
]
