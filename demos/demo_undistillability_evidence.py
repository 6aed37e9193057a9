"""Numerical evidence for 1-undistillability at the reference point x = 1/7.

The case-v state there is NPT with a single negative direction of full
Schmidt rank, its kernel has no product vector, and every compression
family probed stays positive semidefinite.
"""

import numpy as np

from qutritdistill.distill import npt_check, precondition_report, witness_search
from qutritdistill.minors import (
    CLOSED_FORMS,
    MinorScanSpec,
    certify_positive,
    psd_scan_form1,
    scan,
)
from qutritdistill.states import build_family

st = build_family("v", 1 / 7)

rep = npt_check(st)
print(f"x = 1/7: NPT = {rep.is_npt}, inertia {tuple(rep.inertia)}, "
      f"min eig of PT = {rep.min_eig_gamma:.6f}")

pre = precondition_report(st)
print("preconditions:")
for key, val in pre.items():
    print(f"  {key}: {val}")

# the negative eigenvector has Schmidt rank 3: the rank-two projection
# built from it stays positive
rep = witness_search(st)
print(f"witness construction: witness {rep.witness}, "
      f"value {rep.best_value:+.6f}")

# one-parameter compression family: positive semidefinite on the whole grid
entries, all_psd = psd_scan_form1()
worst = min(e["min_eigenvalue"] for e in entries)
print(f"one-parameter compressions: {len(entries)} grid points, "
      f"all PSD = {all_psd}, worst min eigenvalue {worst:.3e}")

# two-parameter compression minors: proved positive for every complex (b, c)
for table, (_, terms) in CLOSED_FORMS.items():
    print(f"{table}: proved positive = {certify_positive(terms)}")

# and sampled over the standard window
panels = (0j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j)
res4 = scan(MinorScanSpec(which="alpha2_minor4", c_values=panels))
print(f"fourth minor: grid min {res4.min_value:.6e} at b={res4.argmin[0]}, "
      f"c={res4.argmin[1]}")

for which in ("F", "G"):
    res = scan(MinorScanSpec(which=which))
    print(f"{which}: grid min {res.min_value:.6f} "
          f"(positive minimum: {res.passed()})")
