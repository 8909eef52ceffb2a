"""Spectral Morse-index invariants of flat G2 orbifolds T^7 / Gamma.

The package computes the two rational invariants attached to the Hessians
of the volume functionals on closed and coclosed G2-structures, via exact
trace polynomials of the group's matrix parts, and verifies every step of
the derivation: type decompositions, refined derivative identities,
eigenspace multiplicities (explicit averaging vs character formula) and
the zeta-regularisation constant -1.
"""

from .exterior import (DIM, ExteriorForm, Metric7, hodge_star, inner, interior,
                       metric_from_frame, pullback, wedge)
from .g2 import G2Structure, TypeLabel, standard_phi0
from .orbifold import (AffineElement, JoyceOrbifold, NonFinite, NonUnimodular,
                       NotG2Compatible, OrbifoldGroup, compose, generate, inverse,
                       validate_joyce)
from .invariants import InvariantPair, mu_invariants, tr8_su3, tr12_su3
from .fourier import (FourierForm, PreconditionFailed, RefinedOp, REFINED_OPS,
                      coexterior_d, exterior_d, green, hessian_blocks, l2_inner,
                      l2_norm, laplacian, project_type, random_fourier, refined,
                      residual, split_S4, star, verify_appendix, wedge_const)
from .oracle import (ConvergenceRegionViolated, EigenClass, ModeSpace,
                     NonIntegerDimension, NotFixed, SpectralReport, enumerate_classes,
                     invariant_dimension_bruteforce, invariant_dimension_formula,
                     partial_morse_sum, spectral_reports, su3_trace_check)
from .epstein import (PoleEncountered, TwistedLattice, closed_form_mu, direct_sum,
                      epstein_value, fixed_lattice, value_at_zero)

__version__ = "0.1.0"
