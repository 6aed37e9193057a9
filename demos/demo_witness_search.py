"""Certify 1-distillability with rank-two projection witnesses.

A state is 1-distillable when compressing the partial transpose by some
rank-two projection on one side exposes a negative eigenvalue. The witness
is built, not searched for: a vector of least Schmidt rank in the negative
eigenspace of the partial transpose gives the projection's rows, and one
eigensolve of the compression decides.
"""

from qutritdistill.distill import witness_search, witness_to_pt_vector
from qutritdistill.linalg import partial_transpose
from qutritdistill.states import build_family, schmidt_rank

for case, x in (("i", 0.05), ("i", 0.30), ("iii", 0.50), ("v", 0.50), ("v", 0.90)):
    st = build_family(case, x)
    rep = witness_search(st)
    print(f"case {case} at x={x}: {rep.inertia.negative} negative eigenvalue(s), "
          f"min {rep.min_eig_gamma:.6f}")
    print(f"  projected eigenvalue {rep.best_value:.6f}  "
          f"(one eigensolve, orthonormal rows of shape {rep.witness.shape})")

    # the witness converts to an explicit Schmidt-rank-2 vector with
    # negative partial-transpose expectation
    g = partial_transpose(st.rho)
    psi, val = witness_to_pt_vector(g, rep.witness)
    print(f"  lifted vector: schmidt rank {schmidt_rank(psi)}, "
          f"<psi|G|psi> = {val:.6f}")

# with one negative eigenvalue of Schmidt rank 3 (case v on [c2, c1]) and
# inside the PPT window nothing is certified; the report keeps the value
for x in (1 / 7, 0.2):
    rep = witness_search(build_family("v", x))
    print()
    print(f"case v, x={x:.4f} (inertia {tuple(rep.inertia)}): witness {rep.witness}, "
          f"value {rep.best_value:+.3e}")
