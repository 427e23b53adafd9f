"""Empirical privacy auditing: estimate a lower bound on the privacy loss.

The auditor replays a mechanism on two neighboring datasets and searches
outcome events for confident likelihood-ratio violations. It refutes a
claimed budget when the estimate exceeds it; it can never prove privacy.
"""

import vc1learn as v
from vc1learn.audit_scenarios import (
    improper_learner_scenario,
    laplace_scenario,
    median_scenario,
    randomized_response_scenario,
)

TRIALS = 20_000  # enough for a demo; the acceptance suite uses 1e5+

print("calibration: randomized response with eps=1 (true loss exactly 1)")
mech, d0, d1, claimed = randomized_response_scenario(1.0)
est = v.dp_audit(mech, d0, d1, 200_000, 0.0, v.make_rng(0))
print(f"  estimated lower bound {est:.3f} vs claimed {claimed.epsilon}")

print("\nnon-private mechanism (publishes the bit): refuted immediately")
leak = v.repeated(lambda data, rng: int(data.labels[0]))  # dp_audit takes batches
print(f"  estimated lower bound {v.dp_audit(leak, d0, d1, TRIALS, 0.0, v.make_rng(1)):.2f}")

for name, scenario in [
    ("laplace count", laplace_scenario(1.0)),
    ("private median", median_scenario(1.0)),
    ("improper learner (tiny, N=30)", improper_learner_scenario(n=30)),
]:
    mech, d_a, d_b, claimed = scenario
    est = v.dp_audit(mech, d_a, d_b, TRIALS, claimed.delta, v.make_rng(2))
    verdict = "REFUTED" if est > claimed.epsilon else "not refuted"
    print(f"\n{name}: claimed eps {claimed.epsilon}")
    print(f"  estimated lower bound {est:.3f} -> {verdict}")
