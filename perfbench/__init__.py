"""Benchmark harness for blocksc; run it with ``python3 perfbench/run.py``."""
