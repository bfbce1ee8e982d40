"""PULSE on simulated data: the three algorithm branches side by side.

PULSE walks the K-class path from OLS toward TSLS and stops at the first
point whose residuals still pass the uncorrelatedness test.  Three things can
happen: OLS itself is accepted (weak endogeneity), the search stops at the
test boundary, or even TSLS is rejected (over-identified misspecification)
and a consistent fallback is returned.
"""

import numpy as np

from pulse_iv import (
    Dataset,
    DesignView,
    EstimatorSpec,
    PulseConfig,
    estimate,
    sem_sample,
    test_statistic,
    univariate_model,
)
from pulse_iv.exceptions import PulseIVError
from pulse_iv.pulse import MESSAGE_TEXT, PulseMessage


def show(title: str, view: DesignView) -> None:
    print(f"\n--- {title}")
    cfg = PulseConfig(p_min=0.05)
    res = estimate(view, EstimatorSpec("pulse"), cfg)  # PULSE is one more K-class kind
    test = test_statistic(view, res.alpha, cfg)  # a PulseConfig is the test it searched with
    for name, spec in (("OLS", "ols"), ("TSLS", "tsls"), ("FUL(4)", "fuller:4")):
        try:  # every K-class kind is one more spec for the same entry
            print(f"  {name:6} {estimate(view, EstimatorSpec.parse(spec)).alpha.round(4)}")
        except PulseIVError as exc:
            print(f"  {name:6} unavailable ({type(exc).__name__})")
    print(f"  PULSE  {res.alpha.round(4)}   lambda* = {res.lambda_used:.4g}")
    print(f"  test {test.statistic:.4f} vs threshold {test.threshold:.4f}")
    if res.message is not PulseMessage.NONE:
        print(f"  {MESSAGE_TEXT[res.message]}")


# 1. strong confounding, strong instrument: the search stops on the boundary
model = univariate_model(q=1, rho=0.8, r2=0.3)
show("interior solution", DesignView(sem_sample(model, 200, seed=1)))

# 2. weak confounding: the OLS estimate already passes the test
model = univariate_model(q=1, rho=0.05, r2=0.1)
show("OLS accepted", DesignView(sem_sample(model, 100, seed=2)))

# 3. invalid instruments entering the target equation: even TSLS is rejected,
#    PULSE+ reverts to Fuller(4)
rng = np.random.default_rng(3)
n = 400
a = rng.normal(size=(n, 2))
x = a @ np.array([1.0, 0.5]) + rng.normal(size=n)
y = 0.5 * x + a @ np.array([0.9, -0.7]) + rng.normal(size=n)
show("fallback", DesignView(Dataset(y=y, x=x[:, None], a=a)))
