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
    minors   closed-form vs direct minor scans at x = 1/7
    cli      command-line front end
"""

from . import distill, kernel, linalg, minors, states
from .distill import DistillReport, find_threshold, npt_check, witness_search
from .kernel import ProductVectorResult, kernel_product_vector, product_vector_in_2x3_complement
from .minors import build_projected, cross_check, eval_closed_form, psd_scan_form1, scan
from .states import CASES, QutritState, build_family

__version__ = "0.1.0"

__all__ = [
    "CASES",
    "DistillReport",
    "ProductVectorResult",
    "QutritState",
    "build_family",
    "build_projected",
    "cli",
    "cross_check",
    "distill",
    "eval_closed_form",
    "find_threshold",
    "kernel",
    "kernel_product_vector",
    "linalg",
    "minors",
    "npt_check",
    "product_vector_in_2x3_complement",
    "psd_scan_form1",
    "scan",
    "states",
    "witness_search",
]
