"""Benchmark of the carbon-aware HPC simulator and sweep executor.

Run from the repository root: ``python3 perfbench/run.py``.
"""
