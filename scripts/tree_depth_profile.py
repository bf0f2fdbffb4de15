#!/usr/bin/env python3
"""Order statistics of the tree groups by depth.

Depths 1 and 2 are tables, counted exhaustively in one pass over their
element orders; deeper levels are oracle groups and are sampled, since depth
4 already has order 2^31.
"""

import argparse

import numpy as np

from rootsets.constructions import tree_vw_group
from rootsets.kernel import order_of


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-depth", type=int, default=3)
    parser.add_argument("--samples", type=int, default=20000,
                        help="sample size for oracle depths")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    for depth in range(1, args.max_depth + 1):
        G = tree_vw_group(depth)
        spec = G.tree_spec
        if depth <= 2:
            orders = G.orders
            mode = "exhaustive"
        else:
            orders = [order_of(G, int(rng.integers(0, G.order))) for _ in range(args.samples)]
            mode = f"sampled ({args.samples})"
        values, counts = np.unique(orders, return_counts=True)
        profile = dict(zip(values.tolist(), counts.tolist()))
        print(f"depth {depth}: order 2^{spec.v_dim + spec.w_dim} "
              f"(V dim {spec.v_dim}, W dim {spec.w_dim}), {mode}")
        print(f"  element orders: {profile}")


if __name__ == "__main__":
    main()
