"""Locate the PPT boundaries of the rank-five family exactly.

The one-parameter branches change character where eigenvalues of the
partial transpose cross zero. The partial transpose is linear in x, so
those crossings are roots of a matrix pencil, found as the eigenvalues of
one standard eigenproblem.
Case v has a PPT window between two crossings; case i is PPT on [1/7, 1/4].
"""

import numpy as np

from qutritdistill.distill import find_threshold
from qutritdistill.linalg import partial_transpose
from qutritdistill.states import build_family

# coarse sweep first, to see the sign structure
xs = np.linspace(0.05, 0.95, 19)
print("case v sweep:")
print(f"{'x':>8} {'min eig':>12} {'2nd eig':>12} {'negatives':>10}")
for x in xs:
    lam = np.linalg.eigvalsh(partial_transpose(build_family("v", float(x)).rho))
    neg = int(np.sum(lam < -1e-10))
    print(f"{x:8.3f} {lam[0]:12.3e} {lam[1]:12.3e} {neg:10d}")

# the crossings, as pencil roots
r1 = find_threshold("v", "min_eig", (0.1, 0.2))
r2 = find_threshold("v", "second_eig", (0.2, 0.4))
print()
print(f"case v: min eig crosses at x = {r1.x_star:.13f}  ({r1.iterations} eigensolves)")
print(f"        reference (33-12*sqrt(6))/25 = {(33 - 12 * np.sqrt(6)) / 25:.13f}")
print(f"case v: 2nd eig crosses at x = {r2.x_star:.13f}")
print(f"        reference 3/11 = {3 / 11:.13f}")

r3 = find_threshold("i", "min_eig", (0.1, 0.2))
r4 = find_threshold("i", "min_eig", (0.2, 0.3))
print(f"case i: crossings at x = {r3.x_star:.13f} and {r4.x_star:.13f}")
print(f"        references 1/7 = {1 / 7:.13f} and 1/4 = 0.2500000000000")
