"""shimguard: a memory-safe virtual-switch data plane with an adversarial harness.

The package pairs a bounds-checked flow extractor, flow table and caches with
modeled-vulnerable parsers, attack-frame crafting, a differential fuzzer, a
worm-propagation timing simulator and a slow-/fast-path benchmark. All parser
defects are simulated: corruption is reported as events, never performed.
"""
