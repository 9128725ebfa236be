#!/usr/bin/env python3
"""Localization discs: every eigenvalue pair beyond a finite index lies in a
disc of radius 3^m sqrt(2) C R (2n-1)^{m alpha} around its center, and each
disc holds exactly two eigenvalues.
"""

from hillgap import (
    PotentialFamily,
    PotentialSpec,
    SobolevParams,
    localization_report,
    make_potential,
    localization_radius,
    weighted_norm,
)

# A complex rough potential on the unit ball of h^{-m alpha}:

m, alpha, R, C, K = 1, 0.5, 1.0, 1.1, 64
spec = PotentialSpec(
    family=PotentialFamily.RANDOM_ROUGH,
    params={"window": 4 * K - 2},
    radius=R,
    seed=7,
)
v = make_potential(spec, SobolevParams(m=m, alpha=alpha))
print("||v|| =", weighted_norm(v, -m * alpha))

# The census scans every disc up to K/4 (the quarter of the window that is
# free of truncation pollution).

report = localization_report(v, m, alpha, R, C, K)
print("empirical n0      :", report.n0_empirical)
print("eigenvalues in cone:", report.cone_count, "= 2 n0 when the pairing is clean")

print("\n  n   radius      hits  max |lambda - center|")
for d in report.disc_rows[:10]:
    print(f"  {d.n:2d}   {d.radius:8.4f}   {d.hits}     {d.max_deviation:.6f}")

# The disc radius grows like (2n-1)^{m alpha}:

for n in (1, 5, 10):
    print(f"radius(n={n}) = {localization_radius(m, alpha, C, R, n):.4f}")
