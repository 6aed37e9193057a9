"""One SHA-256 digest per CLI command of a fixed set, for byte comparisons.

Usage:

    python3 tools/output_digests.py [ROOT] > digests.txt

ROOT is the checkout whose ``src/qutritdistill`` and ``perfbench`` are
imported (default: the checkout holding this file), so the same script
reads a checkout that predates it. Every command runs in-process through
``qutritdistill.cli.main`` from a fresh temporary directory, with relative
paths only, and one line is printed per command:

    <label>  <sha256>  <argv>

The digest covers the exit code, stdout, stderr and the path and bytes of
every file the command wrote. Two checkouts print the same lines exactly
when every command gave the same bytes, so ``diff`` of two outputs lists
the commands whose output changed. The commands are:

- ``bundle``, ``grid`` and ``evidence``: the benchmark workloads at seeds
  1-3, from ``perfbench.workloads.build``;
- ``ci``: the byte set the CI workflow runs twice and compares;
- ``verify``: ``verify-example`` at the grid steps around the chunk and
  operand-order sizes, and off the reference point.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

import numpy as np

SEEDS = (1, 2, 3)
WORKLOADS = ("bundle", "grid", "evidence")

CI_BYTE_SET = [
    ["verify-example", "--grid-step", "0.25", "--out", "bytes"],
    ["grid", "--which", "G", "--step", "0.1", "--c=1+1j", "--c=-1-1j", "--out", "bytes"],
    ["grid", "--which", "G", "--step", "0.04", "--c=0.5-1j", "--c=-1+0.25j", "--out", "bytes/g04"],
    ["grid", "--which", "alpha2_minor4", "--step", "0.1", "--out", "bytes"],
    ["grid", "--which", "alpha1_psd", "--step", "0.1", "--out", "bytes"],
    *[["scan", "--case", case, "--steps", "50", "--out", "bytes"]
      for case in ("v", "iii", "i", "ii", "iv")],
    ["scan", "--case", "v", "--x-min", "0.1", "--x-max", "0.2", "--steps", "2",
     "--out", "bytes/two"],
    ["witness", "--case", "v", "--x", "1/7", "--strategy", "abc", "--json"],
    ["witness", "--case", "i", "--x", "0.3", "--json"],
    ["kernel", "--basis-file", "inputs/basis4.json", "--json"],
    ["kernel", "--basis-file", "inputs/basis3.json", "--json"],
    ["threshold", "--case", "v", "--target", "min-eig", "--bracket", "0.1", "0.2", "--json"],
    ["threshold", "--case", "v", "--target", "second-eig", "--bracket", "0.2", "0.35", "--json"],
    ["threshold", "--case", "i", "--target", "min-eig", "--bracket", "0.02", "0.2", "--json"],
]

VERIFY = [["verify-example", "--grid-step", step, "--json"]
          for step in ("0.04", "0.05", "0.25", "0.5", "0.7")]
VERIFY.append(["verify-example", "--x", "0.2", "--json"])


def _ci_inputs(workdir: str) -> None:
    """basis{5,4,3}.json as the CI workflow draws them."""
    rng = np.random.default_rng(5)
    for n in (5, 4, 3):
        with open(os.path.join(workdir, f"basis{n}.json"), "w") as fh:
            json.dump(rng.normal(size=(n, 9, 2)).tolist(), fh)


def commands(workloads) -> list:
    """(label, argv) of every command, writing their input files under
    ./inputs."""
    os.makedirs("inputs")
    _ci_inputs("inputs")
    out = []
    for name in WORKLOADS:
        for seed in SEEDS:
            for cmd in workloads.build(name, seed, os.path.join("inputs", f"{name}-{seed}")):
                out.append((f"{name}/{seed}", cmd["argv"]))
    out += [("ci", argv) for argv in CI_BYTE_SET]
    out += [("verify", argv) for argv in VERIFY]
    return out


def _written() -> list:
    """Relative paths of the files under . outside ./inputs, sorted."""
    found = []
    for top, dirs, files in os.walk("."):
        if top == ".":
            dirs.remove("inputs")
        found += [os.path.relpath(os.path.join(top, f)) for f in files]
    return sorted(found)


def digest(main, argv) -> str:
    """Run argv through main and hash its exit code, stdout, stderr and
    written files; the files are removed afterwards."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    h = hashlib.sha256()

    def part(data: bytes):
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)

    part(str(code).encode())
    part(out.getvalue().encode())
    part(err.getvalue().encode())
    for path in _written():
        part(path.encode())
        with open(path, "rb") as fh:
            part(fh.read())
    for entry in os.listdir("."):
        if entry != "inputs":
            (shutil.rmtree if os.path.isdir(entry) else os.remove)(entry)
    return h.hexdigest()


def main(root: str) -> int:
    root = os.path.abspath(root)
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench import workloads
    from qutritdistill import cli

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for label, argv in commands(workloads):
                print(f"{label}  {digest(cli.main, argv)}  {' '.join(argv)}", flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else here))
