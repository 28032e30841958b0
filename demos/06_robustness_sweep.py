#!/usr/bin/env python3
"""Mini robustness sweep: score the fixed-beam and oracle policies over a
grid of wire masses and spring constants, printed as a text heatmap. Both
policies score the whole grid in one batched `rollout` call, one policy
per environment.

Run: python demos/06_robustness_sweep.py
"""

from wirebeam import EnvConfig, PhysParams, Policy, PolicyKind, rollout

MASSES = [5.0, 10.0, 20.0]
SPRINGS = [10.0, 50.0, 100.0]
STEPS = 500
POLICIES = [("stay", PolicyKind.STAY), ("one-step oracle", PolicyKind.UPPER_LIMIT)]

print("Average received power [dBm] over a half episode per cell")
print("(test-time physics differ from the 10 kg / 100 N/m training point)\n")

physes = [PhysParams(total_mass=m, spring_constant=k0) for m in MASSES for k0 in SPRINGS]
policies = [Policy(kind) for _, kind in POLICIES for _ in physes]
avgs, _ = rollout(policies, EnvConfig(), physes * len(POLICIES), [2] * len(policies), STEPS)
for (name, _), table in zip(POLICIES, avgs.reshape(len(POLICIES), len(MASSES), len(SPRINGS))):
    print(f"policy: {name}")
    header = "        " + "".join(f"  k0={k:<6.0f}" for k in SPRINGS)
    print(header)
    for m, row in zip(MASSES, table):
        print(f"  m={m:4.0f}" + "".join(f"{avg:10.2f}" for avg in row))
    print()

print("A softer wire (small k0) swings harder, so the fixed beam loses more;")
print("the oracle stays near the static -12.9 dBm everywhere it can slew fast")
print("enough. Trained policies are compared with the `wirebeam sweep` command.")
