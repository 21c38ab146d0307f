"""Network-coded slotted ALOHA: finite-frame simulation and asymptotic design.

Layers, bottom up:

- ``gf2``: bit-packed GF(2) matrices and reduced column echelon form, which
  reduces one payload per column in step with the matrix.
- ``pnc``: per-collision-size matrix families (the stock family counted per
  member shape), each owning its mean rank and gamma-set size counts; the
  model that picks the family for each size and caches the solvability
  (gamma) polynomials built from them.
- ``frames``: degree distributions, reproducible frame sampling, and the
  frame as CSR arrays (per-slot users and transfer columns, per-output
  members, payload and output rows); per-slot `Batch` objects on demand.
- ``decoders``: batched and ordinary peeling over per-unit unknown masks
  with a memoised release rule, plus the global-elimination oracle.
- ``evolution``: the asymptotic edge recursion, run to its fixed point by
  ``evolve``, and the rate upper bound.
- ``optimize``: LP design of degree distributions and load sweeps.
"""

from .decoders import (
    DecodeReport,
    FrameInconsistencyError,
    batched_bp,
    ge_oracle,
    ordinary_bp,
)
from .evolution import (
    EvolutionResult,
    InvariantError,
    PoissonMixture,
    edge_fraction,
    evolve,
    node_fraction,
    poisson_weights,
    rate_upper_bound,
    resolve_prob,
)
from .frames import (
    Batch,
    DegreeDistribution,
    Frame,
    SystemConfig,
    global_matrix,
    sample_frame,
    slot_degree_histogram,
)
from .gf2 import BitMatrix, combine, in_colspan, rank, rcef, select_rows
from .optimize import OptimizationResult, SweepPoint, optimize, sweep
from .pnc import (
    GammaPoly,
    PncModel,
    StockFamily,
    WeightedMatrixFamily,
    example_family,
    family_size,
    gamma_closed_form,
    gamma_k_enum,
    gamma_set,
)

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "BitMatrix",
    "DecodeReport",
    "DegreeDistribution",
    "EvolutionResult",
    "Frame",
    "FrameInconsistencyError",
    "GammaPoly",
    "InvariantError",
    "OptimizationResult",
    "PncModel",
    "PoissonMixture",
    "StockFamily",
    "SweepPoint",
    "SystemConfig",
    "WeightedMatrixFamily",
    "batched_bp",
    "combine",
    "edge_fraction",
    "evolve",
    "example_family",
    "family_size",
    "gamma_closed_form",
    "gamma_k_enum",
    "gamma_set",
    "ge_oracle",
    "global_matrix",
    "in_colspan",
    "node_fraction",
    "optimize",
    "ordinary_bp",
    "poisson_weights",
    "rank",
    "rate_upper_bound",
    "rcef",
    "resolve_prob",
    "sample_frame",
    "select_rows",
    "slot_degree_histogram",
    "sweep",
]
