#!/usr/bin/env python3
"""Print Chevalley-Eilenberg cohomology tables for the small catalog
algebras with trivial and adjoint coefficients."""
import argparse

from crossedext.algebra import adjoint, trivial_rep
from crossedext.cohomology import cohomology_table
from crossedext.field import field_from_spec
from crossedext.samples import LIE_CATALOG, lie_by_name


def show(name, M, label, cap):
    print(f"{name}  ({label} coefficients)")
    for n, dim_c, rank_d, dim_h in cohomology_table(M, cap):
        print(f"  H^{n}: dim C = {dim_c:3d}  rank d = {rank_d:3d}"
              f"  dim H = {dim_h}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--field", default="q")
    ap.add_argument("--max-degree", type=int, default=3)
    args = ap.parse_args()
    field = field_from_spec(args.field)
    for name in LIE_CATALOG:
        g = lie_by_name(field, name)
        show(name, trivial_rep(g, 1), "trivial", args.max_degree)
        show(name, adjoint(g), "adjoint", args.max_degree)
        print()


if __name__ == "__main__":
    main()
