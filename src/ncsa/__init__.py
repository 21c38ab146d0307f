"""Network-coded slotted ALOHA: finite-frame simulation and asymptotic design.

Layers, bottom up:

- ``gf2``: bit-packed GF(2) matrices and reduced column echelon form, which
  also returns the column combinations that make up each reduced column.
- ``pnc``: per-collision-size matrix families (the stock family counted per
  member shape), each owning its mean rank and gamma-set size counts; the
  model that picks the family for each size and caches the solvability
  (gamma) polynomials built from them.
- ``frames``: degree distributions, reproducible frame sampling, and the
  frame as CSR arrays (per-slot users and transfer columns, per-output
  members, payload and output rows); per-slot `Batch` objects on demand.
- ``decoders``: batched and ordinary peeling over per-unit unknown masks,
  one pass of array operations per generation over release rules that the
  module caches, plus the global-elimination oracle.
- ``evolution``: the asymptotic edge recursion, run to its fixed point by
  ``evolve``, and the rate upper bound.
- ``optimize``: LP design of degree distributions and load sweeps.

Import from the submodules (``from ncsa.frames import sample_frame``); the
package itself re-exports nothing, so ``ncsa.optimize`` is the module.
"""

__version__ = "0.1.0"
