#!/usr/bin/env python3
"""Tiny adversarial training run (seconds): the tracker, the wind adversary
and the proxy tracker the adversary is scored against, trained in one
lockstep loop, with the probe curves printed per episode.

Run: python demos/05_train_small.py
"""

from wirebeam import TrainConfig, EnvConfig, train

cfg = TrainConfig(
    env=EnvConfig(horizon=400),  # 4 s episodes keep this demo quick
    episodes=8,
    test_steps=400,
    variant="rarl",
    seed=1,
)

print("Training tracker + wind adversary against each other, and alongside")
print("them the proxy tracker (no adversary, 8 episodes)...\n")
result = train(cfg)  # no proxy_checkpoint given: the run trains its own

print(f"{'episode':>8} {'tracker probe [dBm]':>20} {'adversary probe [dBm]':>22}")
for r in result.records:
    print(f"{r.episode:8d} {r.protagonist_avg_power:20.2f} {r.adversary_check_avg_power:22.2f}")

print("\nTracker probe: greedy beam-tracking, adversary off (higher is better).")
print("Adversary probe: greedy wind attack on the final proxy, one row per")
print("episode's adversary, all run once the proxy is trained (lower means")
print("the adversary is learning to shove the wire off-beam).")
