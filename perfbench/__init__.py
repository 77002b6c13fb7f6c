"""Desk-run benchmark for websift: capture, script-heavy capture, backlog.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, metrics and layer mapping.
"""
