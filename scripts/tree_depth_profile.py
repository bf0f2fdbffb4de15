#!/usr/bin/env python3
"""Order statistics of the tree groups by depth.

Depths 1 to 3 are counted exhaustively, from the element orders of the
group.  Depth 4 has order 2^31, too many elements to name, so its orders are
sampled, each read from repeated squarings by ``TreeVWSpec.mul_vec``.
"""

import argparse

import numpy as np

from rootsets.constructions import TREE_ENUM_DEPTH, TreeVWSpec, tree_vw_group


def sampled_orders(spec, x):
    """Element orders in the 2-group of ``spec``: 2^(squarings to reach the identity)."""
    orders = np.ones(x.size, dtype=np.int64)
    while (live := x != 0).any():
        orders[live] *= 2
        x = spec.mul_vec(x, x)
    return orders


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-depth", type=int, default=3)
    parser.add_argument("--samples", type=int, default=20000,
                        help="sample size for depth 4")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    for depth in range(1, args.max_depth + 1):
        spec = TreeVWSpec.build(depth)
        if depth <= TREE_ENUM_DEPTH:
            orders = tree_vw_group(depth).orders
            mode = "exhaustive"
        else:
            orders = sampled_orders(spec, rng.integers(0, spec.group_order, args.samples))
            mode = f"sampled ({args.samples})"
        values, counts = np.unique(orders, return_counts=True)
        profile = dict(zip(values.tolist(), counts.tolist()))
        print(f"depth {depth}: order 2^{spec.v_dim + spec.w_dim} "
              f"(V dim {spec.v_dim}, W dim {spec.w_dim}), {mode}")
        print(f"  element orders: {profile}")


if __name__ == "__main__":
    main()
