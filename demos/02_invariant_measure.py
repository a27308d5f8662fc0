"""Push the base point forward to the invariant measure of the chain.

mu_N is the law of the chain after N steps from the base point: weighted
atoms, one per edge path of length N, computed rather than sampled.  With a
fair constant coin the halving system leaves Lebesgue measure on [0, 1]
invariant, which gives a visual sanity check: the histogram of mu_N's
weight should be flat.  The second half checks the geometric decay of the
mean distance between the orbit of an atom and the orbit of its base point
under the same edges, averaged exactly over every edge path.
"""

import numpy as np

import cmslab as cl

config = {
    "dimension": 1,
    "vertices": [
        {"index": 1, "lower": [0.0], "upper": [1.0], "base_point": [0.0]},
    ],
    "edges": [
        {"id": "e1", "source": 1, "target": 1, "linear": [0.5], "offset": [0.0],
         "prob": {"family": "constant", "alpha": 0.5}},
        {"id": "e2", "source": 1, "target": 1, "linear": [0.5], "offset": [0.5],
         "prob": {"family": "constant", "alpha": 0.5}},
    ],
}
system = cl.validate_system(config)

mu = cl.pushforward_measure(system)
print(f"mu_{mu.levels}: {len(mu)} atoms, mean {float(mu.mean_point()[0])}")

weight, _ = np.histogram(mu.points[:, 0], bins=10, range=(0.0, 1.0),
                         weights=mu.weights)
print("histogram of weight (10 bins, flat is uniform):")
for i, w in enumerate(weight):
    print(f"  [{i / 10:.1f}, {(i + 1) / 10:.1f})  {'#' * round(w * 250)}  {w:.4f}")

# both maps halve distances, so every pair closes by exactly 1/2 per step
print("\naverage contraction: orbit distance vs geometric envelope a^i c_hat")
rows = cl.check_average_contraction(system, mu, i_max=6)
for row in rows:
    print(f"  i={row.i}  estimate={row.estimate:.6f}  bound={row.bound:.6f}")
