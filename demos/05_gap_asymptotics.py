#!/usr/bin/env python3
"""Gap and mean asymptotics against the closed-form predictions.

For a real potential the pair around each center straddles center + v(0) at
distance |v(4n-2)|, up to remainders that decay in n; the remainder reports
fit the decay exponent and compare it with the predicted class.
"""

from hillgap import (
    FourierSequence,
    converge_truncation,
    gamma_remainder,
    one_term_check,
    predict_pair,
    tau_remainder,
)

# A real potential with geometric Fourier tail: every resonant coefficient
# v(4n-2) = 0.6^{2n-1} is nonzero, so the two-term prediction bites at all n.

coeffs = {0: 0.3}
for k in range(1, 33):
    coeffs[2 * k] = 0.6**k
    coeffs[-2 * k] = 0.6**k
v = FourierSequence.make("even", coeffs)

K, table = converge_truncation(v, m=1, n_max=16, K_start=64)
print("window:", K, "| converged rows:", sum(r.converged for r in table.rows))

# Predicted vs computed for a few indices:

print("\n  n   predicted pair            computed pair")
for n in (2, 4, 6):
    pred = predict_pair(v, 1, n)
    row = table.row(n)
    print(f"  {n}  ({pred.predicted_pair[0].real:12.6f}, {pred.predicted_pair[1].real:12.6f})"
          f"   ({row.lambda_lo.real:12.6f}, {row.lambda_hi.real:12.6f})")

# Remainder classification: the pair-mean remainder and the gap remainder
# each get a fitted log-log slope and a membership verdict.

rep_tau = tau_remainder(table, v, 1, 0.0)
rep_gap = gamma_remainder(table, v, 1, 0.0)
rep_gap_corr = gamma_remainder(table, v, 1, 0.0, corrected=True)
print("\ntau remainder:   slope", round(rep_tau.fitted_slope, 2),
      "target exponent", rep_tau.target_exponent, "bounded:", rep_tau.bounded_flag)
print("gap remainder:   slope", round(rep_gap.fitted_slope, 2),
      "target exponent", rep_gap.target_exponent)
print("gap (corrected): slope", round(rep_gap_corr.fitted_slope, 2),
      "target exponent", rep_gap_corr.target_exponent)

# The one-term deviations |lambda - center| / (2n-1)^{m alpha} stay below
# 3^m sqrt(2) C R on the whole ball of radius R:

rep_one = one_term_check(table, 1, 0.0, R=1.0, C=1.1)
print("one-term ratios bounded:", rep_one.bounded_flag,
      "| max =", round(max(rep_one.values), 4))
