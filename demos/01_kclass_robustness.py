"""Distributional robustness of K-class estimators on the one-anchor benchmark.

The model is X := A + U_X, Y := X + U_Y with unit-variance noise correlated
at 0.5.  OLS converges to 1.25, the causal coefficient is 1.0, and the
K-class estimator at kappa = 3/4 converges to 1.1.  Against hard
interventions do(A := v) with |v| <= x, each coefficient g incurs worst-case
prediction error x^2 (1-g)^2 + g^2 + 3(1-g); the kappa = 3/4 point beats both
endpoints exactly on intervention strengths in [1.37, 3].
"""

import numpy as np

from pulse_iv import (
    DesignView,
    EstimatorSpec,
    ModelPartition,
    e1_model,
    e1_superiority_interval,
    estimate,
    population_kclass,
    sem_sample,
    wcmspe_curve_e1,
)
from pulse_iv.sem import round_interval_inward

model = e1_model()
partition = ModelPartition.all_endogenous(1)

print("population K-class coefficients")
for kappa in (0.0, 0.75, 1.0):
    value = population_kclass(model, partition, kappa)[0]
    print(f"  kappa = {kappa:4.2f}  ->  {value:.4f}")

print("\nfinite-sample estimates, n = 2000, five seeds")
for seed in range(5):
    view = DesignView(sem_sample(model, 2000, seed=seed))
    row = [estimate(view, EstimatorSpec("kclass", k)).alpha[0] for k in (0.0, 0.75, 1.0)]
    print("  seed %d:  %.4f  %.4f  %.4f" % (seed, *row))

print("\nworst-case MSPE against maximum intervention strength x")
x_grid = np.array([0.0, 1.0, 1.37, 2.0, 3.0, 4.0])
header = "  x:      " + "".join(f"{x:8.2f}" for x in x_grid)
print(header)
for g in (1.25, 1.1, 1.0):
    curve = wcmspe_curve_e1(g, x_grid)
    print(f"  g={g:4.2f}: " + "".join(f"{v:8.3f}" for v in curve))

lo, hi = e1_superiority_interval(1.1, (1.25, 1.0))
print(f"\nkappa = 3/4 beats both endpoints for x in [{lo:.4f}, {hi:.4f}]")
print(f"reported inward-rounded: {round_interval_inward((lo, hi))}")
