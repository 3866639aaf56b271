"""Naive reference implementations the equivalence suites check against.

Each module holds the straightforward version of a production hot path,
kept so a hypothesis suite can prove the optimized code produces the same
state, or so a benchmark can keep measuring its recorded "before" point.
Nothing under ``src/`` imports from here.
"""
