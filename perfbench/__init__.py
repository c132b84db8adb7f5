"""Closed-loop benchmark of sketchlr: seeded workloads, checks and a traced run.

Run ``python3 -m perfbench.run --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see ``perfbench/README.md``.
"""
