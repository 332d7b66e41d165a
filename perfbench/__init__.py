"""Benchmark of the extraction engine: seeded page corpora run through the
engine's public entry points, timed from outside, checked against the
byte-exact oracles. Run ``python3 perfbench/run.py --help``."""
