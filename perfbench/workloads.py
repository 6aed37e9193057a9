"""Seeded inputs for the three benchmark workloads.

A workload is a list of CLI subcommands, each with the checks its output
must pass. Everything that varies between seeds is drawn here from one
``numpy.random.default_rng(seed)``: the ``--seed`` handed to the CLI, the c
panels of the G grid, the two-negative witness x and the basis-file
vectors. The program under test only ever sees the generated arguments and
files.

Why each workload exists (the layers it stresses and the ones it leaves idle):

bundle    ``verify-example`` at the paper's x = 1/7, default step 0.05: the
          per-point Python path (~23k ``minors.build_projected`` calls,
          Nelder-Mead ``value_at`` calls, three mid-size batched scans and
          ~220k CSV rows). Distill search and kernel stay idle.
grid      a 361,201-point ``alpha2_minor4`` grid plus G grids at step 0.04
          on three seed-drawn c panels, one command each: batched ``det`` on a
          working set far larger than the cache, and about 430k CSV rows. Per-point loops,
          distill and kernel stay idle.
evidence  scans, witnesses, thresholds and kernel searches: distill's
          eigensolve loop and kernel's minimizer. Minors and CSV formatting
          of large grids stay idle.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("bundle", "grid", "evidence")

C1 = (33.0 - 12.0 * math.sqrt(6.0)) / 25.0  # first PPT boundary of case v
THREE_ELEVENTHS = 3.0 / 11.0

# Case v in [c1, 3/11] has one negative partial-transpose eigenvalue and no
# rank-two witness (x = 0.14 exits 10); above 3/11 it has two, and strategy
# abc finds a witness everywhere in this interval.
TWO_NEGATIVE_X = (0.3, 0.95)
C_PANEL_BOX = 2.0  # |Re c|, |Im c| <= 2 for the G grid panels
BASIS_VECTORS = 5  # a generic 5-dim span: its 4-dim kernel has no product vector


def _c_arg(c: complex) -> str:
    # one token: argparse takes "--c -0.5+2j" as two options and exits 2
    return f"--c={c.real:.3f}{c.imag:+.3f}j"


def build(name: str, seed: int, workdir: str, small: bool = False) -> list[dict]:
    """Commands of workload ``name`` for ``seed``, with any input files
    written under ``workdir``. ``small`` shrinks every grid and scan for the
    benchmark's own smoke test; the verdicts checked stay the same."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng(seed)
    cli_seed = str(int(rng.integers(0, 1000)))
    common = ["--seed", cli_seed, "--json"]

    if name == "bundle":
        step = "0.5" if small else "0.05"
        return [{"argv": ["verify-example", "--x", "1/7", "--grid-step", step] + common,
                 "check": {"kind": "verify"}}]

    if name == "grid":
        panels = rng.uniform(-C_PANEL_BOX, C_PANEL_BOX, size=(3, 2))
        c_args = [_c_arg(complex(re, im)) for re, im in panels]
        # one short command per c panel: a short command is timed closely
        # against the reference loop (calibrate.py), and a short pass lets a
        # run hold enough passes for a steady median
        g_step = "0.2" if small else "0.04"
        return [
            {"argv": ["grid", "--which", "alpha2_minor4", "--step", "0.1" if small else "0.01"]
             + common, "check": {"kind": "grid_positive"}},
        ] + [
            {"argv": ["grid", "--which", "G", "--step", g_step, c_arg] + common,
             "check": {"kind": "grid_positive"}}
            for c_arg in c_args
        ]

    steps = "40" if small else "200"
    x_two = float(rng.uniform(*TWO_NEGATIVE_X))
    vectors = rng.normal(size=(BASIS_VECTORS, 9, 2))
    os.makedirs(workdir, exist_ok=True)
    basis_path = os.path.join(workdir, "basis.json")
    with open(basis_path, "w") as fh:
        json.dump(vectors.tolist(), fh)
    witness = ["witness", "--case", "v", "--strategy", "abc"]
    threshold = ["threshold", "--case", "v", "--target", "min-eig", "--bracket"]
    return [
        {"argv": ["scan", "--case", "v", "--steps", steps] + common,
         "check": {"kind": "scan", "contains": [C1, THREE_ELEVENTHS]}},
        {"argv": ["scan", "--case", "i", "--steps", steps] + common,
         "check": {"kind": "scan", "contains": [1.0 / 7.0, 0.25]}},
        {"argv": witness + ["--x", "1/7"] + common,
         "check": {"kind": "witness", "exit": 10}},
        {"argv": witness + ["--x", f"{x_two:.6f}"] + common,
         "check": {"kind": "witness", "exit": 0}},
        {"argv": threshold + ["0.1", "0.2"] + common,
         "check": {"kind": "threshold", "x_star": C1}},
        {"argv": threshold + ["0.2", "0.35"] + common,
         "check": {"kind": "threshold", "x_star": THREE_ELEVENTHS}},
        {"argv": ["kernel", "--case", "v", "--x", "1/7"] + common,
         "check": {"kind": "kernel"}},
        {"argv": ["kernel", "--basis-file", basis_path] + common,
         "check": {"kind": "kernel"}},
    ]
