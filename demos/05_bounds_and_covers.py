"""Evaluate the explicit divergence bounds and cross-check them against
branch-and-bound cover costs.

Two closed-form upper bounds come out of the derived constants: one for the
limiting divergence and one pointwise for the log-density.  Their payoff is
a multiplicative lower bound on the shifted-cover outer measure of any
cylinder union: M(Q) times a factor built from the modulus series.  The
cover search produces the matching upper bound with a verifiable
certificate; lower <= upper on every query is the sandwich every run ends
with.
"""

import math

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
}
system = cl.validate_system(config)
mu = cl.pushforward_measure(system)  # deterministic: no seed
constants = cl.derive_constants(system, mu)
report = cl.evaluate_bounds(system, constants)

print("bound on the limiting divergence:", f"{report.bound_i_value:.6f}")
print("pointwise bound on log-density:  ", f"{report.bound_ii_value:.6f}")
print("corollary factor:                ", f"{report.corollary_factor:.6f}",
      "(= e^-2 for this system:", f"{math.exp(-2):.6f})")

# sandwich a single cylinder: corollary lower bound vs cover upper bound,
# both read from one walk under mu_N (the cover reads only phi0 from it)
walk = cl.walk_cylinders(system, 3, mu)
q = cl.cylinder_set(system, [("e1",)])
m_q = cl.m_of_cylinder_set(walk, q)
lower = cl.corollary_lower_bound(report, m_q)
cost, candidate = cl.phi_upper(walk, q, max_shift=2, max_depth=3)
check = cl.consistency_check(lower, cost)
print(f"\nquery: the cylinder of e1, chain mass {m_q:.5f}")
print(f"  lower bound {lower:.6f}  <=  cover cost {cost:.6f}"
      f"  (margin {check.margin:.6f}, pass={check.passed})")
print(f"  cover: {len(candidate.pieces)} piece(s), "
      f"exhaustive={candidate.exhaustive}")

# certificates are self-contained and re-verifiable
cert = cl.certificate_dict(system, q, candidate)
cl.verify_certificate_data(cert)
print("  certificate re-verified: disjoint, covering, cost matches")

# a shifted partition of the whole space also costs exactly its total mass
whole = cl.full_cylinder_set(system, 2)
cost, _ = cl.phi_upper(walk, whole, max_shift=2, max_depth=2)
print(f"\nwhole space at depth 2: cover cost {cost:.12f}")
