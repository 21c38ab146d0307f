"""
Finite frames against the asymptotic recursion
==============================================

The iteration-by-iteration recovery probability of an infinitely large
system follows a one-dimensional recursion.  A frame with 20k users
already tracks its terminal value closely, and the recursion's fixed
point locates the collapse rate without any sampling.
"""

import numpy as np

from ncsa.decoders import batched_bp
from ncsa.evolution import evolve
from ncsa.frames import DegreeDistribution, SystemConfig, sample_frame
from ncsa.pnc import PncModel

model = PncModel.example(10)
dist = DegreeDistribution({3: 1.0})
rate = 1.5
lam = rate * dist.mean()

result = evolve(dist, lam, 100, model)
print(f"rate {rate} (load {lam}/slot): predicted terminal fraction {result.z_star:.6f}")
print("first rounds of the recursion:",
      " ".join(f"{z:.4f}" for z in result.trajectory[:8]))

users = 20000
fractions = []
for seed in range(5):
    cfg = SystemConfig(users=users, slots=int(users / rate), dist=dist,
                       model=model, seed=seed, payload_len=0)
    report = batched_bp(sample_frame(cfg))
    fractions.append(report.decoded_fraction)
    print(f"seed {seed}: decoded {report.decoded_fraction:.6f} in {report.iterations} passes")

print(f"mean over seeds {np.mean(fractions):.6f} vs prediction {result.z_star:.6f}")

# a little more load and the same design falls off a cliff; near the
# edge the recursion needs many more rounds to settle
print()
print("terminal fraction across rates:")
for r in (1.5, 1.6, 1.65, 1.7, 1.8):
    deep = evolve(dist, r * dist.mean(), 10**5, model)
    mark = "" if deep.converged else "  (still moving after 1e5 rounds)"
    print(f"  rate {r}: {deep.z_star:.4f}{mark}")
