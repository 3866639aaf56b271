"""Naive reference implementations the equivalence suites check against.

Each module holds the straightforward version of a production hot path,
kept only so a hypothesis suite can prove the optimized code produces the
same state.  Nothing under ``src/`` imports from here.
"""
