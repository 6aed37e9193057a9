"""Product vectors in kernels of rank-five states.

Four routes: direct candidates for two explicit range constructions,
the cubic-pencil solver on complements inside C2 x C3, the exact lemma for
kernels spanned by the antisymmetric subspace and one Schmidt-rank-3
symmetric vector, and the minor objective, which stays bounded away from
zero on those kernels.
"""

import numpy as np

from qutritdistill import kernel_product_vector
from qutritdistill.kernel import (
    antisymmetric_lemma_applies,
    eq5_family_basis,
    eq5_family_min_objective,
    product_vector_in_2x3_complement,
    rank1_exclusion_margin,
)
from qutritdistill.states import basis_ket, schmidt_rank, uniform_state_on_span


def sym(i, j):
    return (basis_ket(i, j) + basis_ket(j, i)) / np.sqrt(2)


# two range constructions with known kernel product vectors
st1 = uniform_state_on_span(
    [basis_ket(0, 0), basis_ket(1, 1), sym(0, 1), sym(0, 2), sym(1, 2)]
)
res = kernel_product_vector(st1, mode="exact_cases")
print(f"range type 1: found={res.found}, overlap with |22> = "
      f"{abs(np.vdot(res.vector, basis_ket(2, 2))):.6f}, residual {res.residual:.1e}")

st2 = uniform_state_on_span(
    [basis_ket(0, 0), basis_ket(1, 1), basis_ket(2, 2), sym(0, 2), sym(1, 2)]
)
res = kernel_product_vector(st2, mode="exact_cases")
print(f"range type 2: found={res.found}, overlap with |01> = "
      f"{abs(np.vdot(res.vector, basis_ket(0, 1))):.6f}")

# the pencil always finds a product vector orthogonal to three given
# vectors in C2 x C3: det of the 3x3 pencil matrix is a cubic, cubics
# over C have roots
rng = np.random.default_rng(7)
m = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
q, _ = np.linalg.qr(m)
res = product_vector_in_2x3_complement(list(q.T))
print(f"random 3-dim complement: found={res.found}, residual {res.residual:.1e}, "
      f"schmidt rank {schmidt_rank(res.vector, dim_a=2, dim_b=3)}")

# obstructed kernels: antisymmetric subspace plus a diagonal vector of
# Schmidt rank 3; the lemma excludes product vectors exactly, and the
# minor objective cannot reach zero. The closed-form margin is the size of
# the one minor that the sign branches of the would-be product vector leave
for s in ((1 / 3, 1 / 3, 1 / 3), (0.5, 0.3, 0.2), (0.1, 0.45, 0.45)):
    lemma = antisymmetric_lemma_applies(eq5_family_basis(s))
    val = eq5_family_min_objective(s)
    margin = rank1_exclusion_margin(*s)
    print(f"s = {s}: lemma excludes product vectors: {lemma}, "
          f"min minor objective {val:.6f} (exclusion margin^2 = {margin ** 2:.6f})")
