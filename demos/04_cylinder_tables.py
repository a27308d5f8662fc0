"""Tabulate cylinder masses, base measures, and their densities.

Each admissible length-n word names a cylinder.  The table compares the
chain mass M against the base measure phi0 built from point masses at the
support base points; the ratio Z = M/phi0 is the object every divergence
estimate integrates.  For a constant fair coin on one vertex the two
measures coincide and Z is identically 1; a place-dependent coin tilts Z
away from 1, and the depth-n divergence K_n grows monotonically.  The chain
mass comes from mu_N, the base points pushed forward N levels: weighted
atoms, not samples, so every standard error is 0.
"""

import cmslab as cl

flat = {
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
system = cl.validate_system(flat)
table = cl.build_table(system, 3, cl.EXACT)
print("constant coin, exact mode, depth 3: all densities are 1")
print("  Z values:", sorted(set(float(z) for z in table.z_values)))
print("  K_3 =", cl.kl_n(table)[0])

tilted = {**flat, "edges": [
    {"id": "e1", "source": 1, "target": 1, "linear": [0.5], "offset": [0.0],
     "prob": {"family": "affine", "alpha": 1 / 3, "beta": [1 / 3]}},
    {"id": "e2", "source": 1, "target": 1, "linear": [0.5], "offset": [0.5],
     "prob": {"family": "affine", "alpha": 2 / 3, "beta": [-1 / 3]}},
]}
system = cl.validate_system(tilted)
mu = cl.pushforward_measure(system)

table = cl.build_table(system, 2, mu)
print(f"\nplace-dependent coin, pushforward measure ({mu.levels} levels, "
      f"{len(mu)} atoms), depth 2")
print(f"  {'word':>8} {'M':>10} {'phi0':>10} {'Z':>8} {'logZ':>9}")
for word, m, p, z, lz in zip(table.words, table.m_values, table.phi0_values,
                             table.z_values, table.logz_values):
    print(f"  {'.'.join(word):>8} {m:>10.5f} {p:>10.5f} {z:>8.4f} {lz:>9.5f}")

print("\ndivergence series (nonnegative, nondecreasing):")
for n in range(1, 6):
    value, stderr = cl.kl_n(cl.build_table(system, n, mu))
    print(f"  K_{n} = {value:.6f} (stderr {stderr:.2g})")

print("\nshift-maximized variant at depth 3 (window 0 reproduces K_3):")
for window in (0, 1, 2):
    value, stderr = cl.kstar_estimate(system, window, 3, mu)
    print(f"  window {window}: {value:.6f} (stderr {stderr:.2g})")
