"""Correctness oracle for one `crossed-ext report --format json` output.

The expectations come from gen.py, which derives them from closed forms
(binomials, Betti numbers of abelian and Heisenberg algebras, Whitehead and
Kunneth for sl2 and gl3, dimension counts of the constructions) and its own
rank routine -- never from crossedext.
"""
from __future__ import annotations

from fractions import Fraction


def _check_ladder(rec, expect):
    dims, dim_h = expect
    table = rec.get("table", [])
    if len(table) != len(dims):
        return f"table has {len(table)} rows, want {len(dims)}"
    prev = 0
    for n, row in enumerate(table):
        if row["degree"] != n or row["dim_cochains"] != dims[n]:
            return f"degree {n}: dim C = {row['dim_cochains']}, want {dims[n]}"
        if row["dim_h"] != row["dim_cochains"] - row["rank_delta"] - prev:
            return f"degree {n}: dim H is not dim C - rank - previous rank"
        if dim_h is not None and row["dim_h"] != dim_h[n]:
            return f"degree {n}: dim H = {row['dim_h']}, want {dim_h[n]}"
        prev = row["rank_delta"]
    return None


def _canonical(rec):
    return [Fraction(x) for x in rec.get("class_canonical", [])]


def _check_mix(rec, expect, records):
    for key, want in expect.items():
        if key == "theta_zero":
            if any(Fraction(x) for x in rec.get("theta", ["1"])):
                return "theta of a zero or identity crossed module is nonzero"
        elif key == "canonical_sum_of":
            i, j = want
            a, b = _canonical(records[i]), _canonical(records[j])
            if len(a) != len(b) or _canonical(rec) != \
                    [x + y for x, y in zip(a, b)]:
                return "Baer-sum class is not the sum of the two classes"
        elif rec.get(key) != want:
            return f"{key} = {rec.get(key)!r}, want {want!r}"
    return None


def check_report(workload, report, expectations):
    """Return a list of (command index, message) for every failed command."""
    records = report.get("results", [])
    if len(records) != len(expectations):
        return [(-1, f"{len(records)} records for {len(expectations)} "
                     "commands")]
    bad = []
    for idx, (rec, expect) in enumerate(zip(records, expectations)):
        if rec.get("status") != "PASS":
            bad.append((idx, f"status {rec.get('status')}: "
                             f"{rec.get('error', '')}"))
            continue
        if workload.startswith("ladder"):
            msg = _check_ladder(rec, expect)
        else:
            msg = _check_mix(rec, expect, records)
        if msg is not None:
            bad.append((idx, msg))
    return bad
