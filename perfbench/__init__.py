"""Benchmark harness for the lossdiag CLI; entry point is perfbench/run.py."""
