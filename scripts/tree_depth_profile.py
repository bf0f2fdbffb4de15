#!/usr/bin/env python3
"""Order statistics of the tree groups by depth.

Every depth is counted exactly from the squaring law (v, w)^2 = (0, gamma(v, v)),
``TreeVWSpec.order_profile``: gamma(v, v) is evaluated for every v in V, so
depth 4, of order 2^31, needs no enumeration of its elements.
"""

import argparse

from rootsets.constructions import TreeVWSpec


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-depth", type=int, default=3)
    args = parser.parse_args()

    for depth in range(1, args.max_depth + 1):
        spec = TreeVWSpec.build(depth)
        print(f"depth {depth}: order 2^{spec.v_dim + spec.w_dim} "
              f"(V dim {spec.v_dim}, W dim {spec.w_dim}), exhaustive")
        print(f"  element orders: {spec.order_profile()}")


if __name__ == "__main__":
    main()
