#!/usr/bin/env python3
"""Print level-by-level eta sizes for a tower spec document.

Shows the split the stabilization certificate formalizes: members of K hold
a constant eta size once born, everything else keeps growing with the level.
"""

import argparse
import sys
from pathlib import Path

from rootsets.cli import SpecError, build_tower, read_spec
from rootsets.kernel import GroupError
from rootsets.towers import DEFAULT_WINDOW, k_estimate

DEFAULT_SPEC = Path(__file__).resolve().parent.parent / "specs" / "quat.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("spec", nargs="?", default=str(DEFAULT_SPEC),
                        help="path to a tower spec document (default: specs/quat.json)")
    parser.add_argument("--max-level", type=int, default=6)
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    parser.add_argument("--limit", type=int, default=12,
                        help="how many elements of each class to print")
    args = parser.parse_args()

    path = Path(args.spec)
    try:
        tower = build_tower(read_spec(path, path.parent), path.parent)
        rep = k_estimate(tower, max_level=args.max_level, window=args.window)
    except (SpecError, GroupError, OSError) as exc:  # bad input: one line, exit 1
        sys.exit(f"{parser.prog}: error: {exc}")
    levels = sorted({pl.level for r in rep.eta_reports.values()
                     for pl in r.per_level})
    header = "element".ljust(14) + "".join(f"L{k}".rjust(8) for k in levels)
    print(f"tower={path.stem}  kind={rep.tower_kind}  "
          f"birth-level={rep.birth_level}  window={rep.window}")
    print(header)
    print("-" * len(header))

    def row(nm, mark):
        r = rep.eta_reports[nm]
        sizes = {pl.level: pl.size for pl in r.per_level}
        cells = "".join(str(sizes.get(k, "-")).rjust(8) for k in levels)
        print(f"{mark} {nm}".ljust(14) + cells)

    for nm in rep.members[: args.limit]:
        row(nm, "*")
    for nm in rep.growing[: args.limit]:
        row(nm, " ")
    print(f"\n* stabilized ({len(rep.members)} total); "
          f"growing: {len(rep.growing)}; undetermined: {len(rep.undetermined)}")
    if rep.theory is not None:
        verdict = "agrees" if rep.agrees else "DISAGREES"
        print(f"theory [{rep.theory_tag}]: {verdict}")


if __name__ == "__main__":
    main()
