"""Rank-five symmetric two-qutrit states: PPT boundaries, 1-distillability
witnesses, kernel product-vector analysis, and positivity scans of
projection-compressed partial transposes.

Submodules:
    linalg   Hermitian/symmetric matrix primitives (partial transpose,
             Takagi, inertia, principal minors)
    states   the five one-parameter state families and local operations
    distill  NPT checks, the witness construction (2x3 orthonormal rows),
             PPT thresholds
    kernel   product vectors in kernels and 2x3 subspaces
    minors   the x = 1/7 row families, their chunked compressions, and
             closed-form vs direct minor scans
    cli      command-line front end
"""

from . import distill, kernel, linalg, minors, states

__version__ = "0.1.0"
