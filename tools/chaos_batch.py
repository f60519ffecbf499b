#!/usr/bin/env python3
"""Prints the dsmt_serve batch the CI chaos jobs share.

    python3 tools/chaos_batch.py [--requests N] > batch.json

N defaults to 64. Every fifth request is a table cell, the rest are wire
solves. The wire duties are 0.05 + 0.01 * k as Python computes them, and
json.dumps prints each double with the 17 significant digits that
round-trip it (for example 0.060000000000000005), so the batch is what a
real full-precision client sends.
"""
import argparse
import json

ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
ap.add_argument("--requests", type=int, default=64,
                help="number of requests (default 64)")
args = ap.parse_args()

reqs = []
for i in range(args.requests):
    if i % 5 == 3:
        reqs.append({"id": f"cell-{i}", "kind": "table-cell",
                     "technology": "NTRS-180nm-Cu",
                     "level": 1 + i % 5,
                     "duty_cycle": 0.1 if i % 2 else 1.0})
    else:
        reqs.append({"id": f"wire-{i}", "kind": "self-consistent",
                     "duty_cycle": 0.05 + 0.01 * (i % 20),
                     "wire": {"width_um": 0.4 + 0.02 * (i % 9),
                              "thickness_um": 0.9,
                              "dielectric_um": 0.8}})
print(json.dumps(reqs))
