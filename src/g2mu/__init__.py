"""Spectral Morse-index invariants of flat G2 orbifolds T^7 / Gamma.

The package computes the two rational invariants attached to the Hessians
of the volume functionals on closed and coclosed G2-structures, via exact
trace polynomials of the group's matrix parts, and verifies every step of
the derivation: type decompositions, refined derivative identities,
eigenspace multiplicities (explicit averaging vs character formula) and
the zeta-regularisation constant -1.  Import the submodules directly:
`g2mu.cli`, the exact core (`linalg`, `exterior`, `g2`, `orbifold`,
`invariants`, `epstein`), `oracle` and the float Fourier layer `fourier`
import only the standard library.  mpmath is imported lazily: by `epstein`
for values away from s = 0 and by `oracle` for a phase whose cosine is
irrational.
"""

__version__ = "0.1.0"
