"""Product vectors in kernels of rank-five states.

Three routes: direct candidates for two explicit range constructions,
the exact lemma for kernels spanned by the antisymmetric subspace and one
Schmidt-rank-3 symmetric vector, and the exact decision on the cubic minors
of M(u), which agrees with the lemma on those kernels and decides any
other. Its line pencil also solves complements inside C2 x C3.
"""

import numpy as np

from qutritdistill.kernel import (
    antisymmetric_lemma_applies,
    candidate_product_vector,
    decide_kernel,
    eq5_family_basis,
    kernel_product_vector,
    product_vector_in_2x3_complement,
    rank1_exclusion_margin,
)
from qutritdistill.linalg import matrix_rank
from qutritdistill.states import basis_ket, range_kernel, uniform_state_on_span


def sym(i, j):
    return (basis_ket(i, j) + basis_ket(j, i)) / np.sqrt(2)


# two range constructions with known kernel product vectors
st1 = uniform_state_on_span(
    [basis_ket(0, 0), basis_ket(1, 1), sym(0, 1), sym(0, 2), sym(1, 2)]
)
res = candidate_product_vector(st1)
print(f"range type 1: found={res.found}, overlap with |22> = "
      f"{abs(np.vdot(res.vector, basis_ket(2, 2))):.6f}, residual {res.residual:.1e}")

st2 = uniform_state_on_span(
    [basis_ket(0, 0), basis_ket(1, 1), basis_ket(2, 2), sym(0, 2), sym(1, 2)]
)
res = candidate_product_vector(st2)
print(f"range type 2: found={res.found}, overlap with |01> = "
      f"{abs(np.vdot(res.vector, basis_ket(0, 1))):.6f}")

# the decision's line pencil always finds a product vector orthogonal to
# three given vectors in C2 x C3: det M(m, n) of the 3x3 pencil is a cubic
# in (m : n), and cubics over C have roots
rng = np.random.default_rng(7)
m = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
q, _ = np.linalg.qr(m)
res = product_vector_in_2x3_complement(list(q.T))
print(f"random 3-dim complement: found={res.found}, residual {res.residual:.1e}, "
      f"schmidt rank {matrix_rank(res.vector.reshape(2, 3))}")

# obstructed kernels: antisymmetric subspace plus a diagonal vector of
# Schmidt rank 3; the lemma excludes product vectors exactly, and the exact
# decision on the minors of M(u) agrees, with a margin well above roundoff.
# The closed-form margin is the size of the one 2x2 minor that the sign
# branches of the would-be product vector leave
for s in ((1 / 3, 1 / 3, 1 / 3), (0.5, 0.3, 0.2), (0.1, 0.45, 0.45)):
    basis = eq5_family_basis(s)
    lemma = antisymmetric_lemma_applies(basis)
    complement = np.linalg.qr(basis, mode="complete")[0][:, 4:]
    decided = decide_kernel(*range_kernel(uniform_state_on_span(list(complement.T))))
    margin = rank1_exclusion_margin(*s)
    print(f"s = {s}: lemma excludes product vectors: {lemma}, decision: "
          f"found={decided.found} ({decided.evidence_level}, margin {decided.margin:.4f}), "
          f"exclusion margin^2 = {margin ** 2:.6f}")

# a random 4-dim range leaves a 5-dim kernel, which always holds a product
# vector; a random 5-dim range leaves a 4-dim kernel, which generically holds none
rng = np.random.default_rng(11)
for d in (4, 5):
    st = uniform_state_on_span(list(rng.normal(size=(d, 9)) + 1j * rng.normal(size=(d, 9))))
    res = kernel_product_vector(st)
    print(f"random {d}-dim range: found={res.found} ({res.evidence_level}), "
          f"residual {res.residual:.1e}, margin {res.margin}")
