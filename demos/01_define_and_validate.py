"""Define a system, validate it, and read off its derived constants.

A system is a directed graph: each vertex owns a box region with a marked
base point, each edge carries an affine map into the target region and a
probability function on the source region.  This demo builds the halving
system with a place-dependent coin, shows what the validator rejects, and
derives the constants every later bound is made of.
"""

import json

import cmslab as cl

config = {
    "dimension": 1,
    "vertices": [
        {"index": 1, "lower": [0.0], "upper": [1.0], "base_point": [0.0]},
    ],
    "edges": [
        {"id": "e1", "source": 1, "target": 1, "linear": [0.5], "offset": [0.0],
         "prob": {"family": "affine", "alpha": 1 / 3, "beta": [1 / 3]}},
        {"id": "e2", "source": 1, "target": 1, "linear": [0.5], "offset": [0.5],
         "prob": {"family": "affine", "alpha": 2 / 3, "beta": [-1 / 3]}},
    ],
    "support_set": [1],
}

system = cl.validate_system(config)
print("validated:", len(system.vertices), "vertex,", len(system.edges), "edges")
print("contraction rate a =", system.contraction_rate)
print("max base displacement d =", system.max_displacement)

# the validator catches broken specs: here the coin stops summing to 1
broken = json.loads(json.dumps(config))
broken["edges"][0]["prob"] = {"family": "constant", "alpha": 0.6}
broken["edges"][1]["prob"] = {"family": "constant", "alpha": 0.6}
for violation in cl.collect_violations(broken):
    print("rejected:", violation)

# constants need the invariant measure for the average distance c_hat:
# mu_N, the base point pushed forward N levels, approximates it
mu = cl.pushforward_measure(system)
constants = cl.derive_constants(system, mu)
print("\nderived constants")
for name in ("a", "delta", "d", "b", "c_hat", "dini_sum_half", "dini_sum_full"):
    print(f"  {name:>14} = {getattr(constants, name):.12g}")

# the oscillation modulus of this coin is min(t/3, 1), so the geometric
# modulus series sums to 2/3 and the probability floor is delta = 1/3
print("\nexpected dini_sum_full = 2/3 =", 2 / 3)
