"""The benchmark's own group arithmetic, independent of the g2mu package.

Groups are generated by affine maps x -> A x + t of the 7-torus whose matrix
part A is a signed permutation preserving the model 3-form phi0 and whose
translation t has denominators in {1, 2, 3, 4, 6} (5 for a known-defect
probe).  Everything here is exact integer / Fraction arithmetic: closure, the
trace polynomials tr8 / tr12, the golden invariants mu3 / mu4, lattice-vector,
fixed-pair and phase counts.  The benchmark uses these numbers to gate the
program's reports, so none of them comes from g2mu itself.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

DIM = 7

# phi0 = e123 + e145 + e167 + e246 - e257 - e347 - e356 (0-based indices)
PHI0 = {(0, 1, 2): 1, (0, 3, 4): 1, (0, 5, 6): 1, (1, 3, 5): 1,
        (1, 4, 6): -1, (2, 3, 6): -1, (2, 4, 5): -1}

IDENTITY = tuple(tuple(int(i == j) for j in range(DIM)) for i in range(DIM))
ZERO_T = (Fraction(0),) * DIM


def _sorted_sign(triple):
    """Sorted triple and the sign of the sorting permutation."""
    a, b, c = triple
    inversions = (a > b) + (a > c) + (b > c)
    return tuple(sorted(triple)), (-1) ** inversions


def signed_perm_matrix(perm, signs):
    """Matrix with A e_j = signs[j] e_{perm[j]}."""
    mat = [[0] * DIM for _ in range(DIM)]
    for j in range(DIM):
        mat[perm[j]][j] = signs[j]
    return tuple(tuple(row) for row in mat)


def preserves_phi0(perm, signs):
    """A^* phi0 = phi0 for the signed permutation A e_j = s_j e_{p(j)}."""
    for (a, b, c), coeff in PHI0.items():
        image, sgn = _sorted_sign((perm[a], perm[b], perm[c]))
        if signs[a] * signs[b] * signs[c] * sgn * PHI0.get(image, 0) != coeff:
            return False
    return True


def phi0_stabiliser():
    """All signed permutation matrices of determinant 1 preserving phi0.

    The permutation part must map the seven lines of phi0 (a Fano plane) to
    themselves; for each such permutation the signs are then searched.
    """
    lines = set(PHI0)
    out = []
    for perm in itertools.permutations(range(DIM)):
        if any(_sorted_sign(tuple(perm[i] for i in ln))[0] not in lines for ln in lines):
            continue
        for bits in range(2 ** DIM):
            signs = tuple(-1 if bits >> j & 1 else 1 for j in range(DIM))
            if preserves_phi0(perm, signs):
                out.append(signed_perm_matrix(perm, signs))
    return out


# -- affine group law ------------------------------------------------------------


def matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(DIM)) for j in range(DIM))
                 for i in range(DIM))


def matvec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(DIM)) for i in range(DIM))


def transpose(a):
    return tuple(tuple(a[j][i] for j in range(DIM)) for i in range(DIM))


def reduce_t(t):
    return tuple(Fraction(x) % 1 for x in t)


def compose(x, y):
    """(A, t)(B, u) = (AB, A u + t) for the action x -> A x + t."""
    (a, t), (b, u) = x, y
    return matmul(a, b), reduce_t(tuple(p + q for p, q in zip(matvec(a, u), t)))


def closure(generators, cap=2000):
    """All elements generated by the affine generators (finite order assumed).

    Matrix parts are signed permutations, so every generator has finite
    order and right multiplication by generators alone reaches the group.
    """
    ident = (IDENTITY, ZERO_T)
    gens = [(tuple(map(tuple, a)), reduce_t(t)) for a, t in generators]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if len(seen) > cap:
            raise ValueError(f"closure exceeded {cap} elements")
        frontier = nxt
    return seen


def conjugate(element, g):
    """(g, 0)(A, t)(g, 0)^-1 = (g A g^-1, g t); g is a signed permutation."""
    a, t = element
    return matmul(matmul(g, a), transpose(g)), reduce_t(matvec(g, t))


# -- invariants and counts --------------------------------------------------------


def trace_polys(a):
    """(tr8(A), tr12(A)) as integers; tr12 is an integer for any integer A."""
    a2 = matmul(a, a)
    a3 = matmul(a2, a)
    tr = sum(a[i][i] for i in range(DIM))
    tr2 = sum(a2[i][i] for i in range(DIM))
    tr3 = sum(a3[i][i] for i in range(DIM))
    tr8 = (tr * tr - tr2) // 2 - 2 * tr + 1
    tr12 = (tr ** 3 + 2 * tr3 - 3 * tr2 * tr) // 6 - (tr * tr - tr2) // 2 - 2
    return tr8, tr12


def mu_pair(elements):
    """Exact (mu3, mu4) = -(1/|G|) sum (tr8, tr12) over the matrix parts."""
    s8 = s12 = 0
    for a, _ in elements:
        t8, t12 = trace_polys(a)
        s8 += t8
        s12 += t12
    n = len(elements)
    return Fraction(-s8, n), Fraction(-s12, n)


def translation_denominator(elements):
    """Largest translation denominator over the group."""
    return max(x.denominator for _, t in elements for x in t)


def scaled_gram(frame):
    """(D * F^T F as an int64 array, D) with D the least common denominator."""
    F = [[Fraction(x) for x in row] for row in frame]
    gram = [[sum(F[k][i] * F[k][j] for k in range(DIM)) for j in range(DIM)]
            for i in range(DIM)]
    den = 1
    for row in gram:
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
    return np.array([[int(x * den) for x in row] for row in gram], dtype=np.int64), den


def lattice_vectors(frame, radius_sq):
    """Nonzero l in Z^7 with l^T (F^T F) l <= radius_sq, as an int64 array."""
    G, den = scaled_gram(frame)
    bound = Fraction(radius_sq) * den
    ginv = np.linalg.inv(G.astype(float))
    reach = [int(np.floor(np.sqrt(float(bound) * ginv[i, i]) + 1e-9)) for i in range(DIM)]
    axes = [np.arange(-r, r + 1, dtype=np.int64) for r in reach]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, DIM)
    norms = np.einsum("ij,jk,ik->i", pts, G, pts)
    keep = (norms * bound.denominator <= bound.numerator) & np.any(pts != 0, axis=1)
    return pts[keep]


def lattice_norms(frame, vectors):
    """Sorted distinct exact squared norms of the vectors (the eigen-classes)."""
    G, den = scaled_gram(frame)
    norms = np.einsum("ij,jk,ik->i", vectors, G, vectors)
    return tuple(Fraction(int(n), den) for n in np.unique(norms))


def phase_denominator(elements, frame, vectors):
    """Largest denominator of the oracle phases l . G t over fixed (element, l)."""
    G, den = scaled_gram(frame)
    largest = 1
    for a, t in elements:
        A = np.array(a, dtype=np.int64)
        fixed = vectors[np.all(vectors @ A.T == vectors, axis=1)]
        scale = math.lcm(den, *(x.denominator for x in t))
        tv = np.array([int(x * scale) for x in t], dtype=np.int64)
        for num in set((fixed @ G @ tv).tolist()):
            largest = max(largest, (Fraction(num, den * scale) % 1).denominator)
    return largest


def fixed_pairs(elements, vectors):
    """Number of (element, l) with A l = l over the nonzero lattice vectors."""
    total = 0
    for a, _ in elements:
        A = np.array(a, dtype=np.int64)
        total += int(np.count_nonzero(np.all(vectors @ A.T == vectors, axis=1)))
    return total


def conjugate_frame(frame, g):
    """g F g^-1 for a signed permutation g (keeps F A F^-1 in G2 for conjugates)."""
    F = tuple(tuple(Fraction(x) for x in row) for row in frame)
    return [list(row) for row in matmul(matmul(g, F), transpose(g))]


def seeded_conjugator(stabiliser, seed, tag):
    """A stabiliser element chosen by (seed, tag), the same on every run."""
    return random.Random(f"{seed}:{tag}").choice(stabiliser)
