#!/usr/bin/env python3
"""Survey the whole catalog: dimension tables, fitted Poincare series,
and sphere-action condition reports.

    python3 scripts/catalog_survey.py [--max-deg N] [--stretch]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from modcoh import catalog
from modcoh.actions import full_report
from modcoh.groups import prime_factors
from modcoh.resolutions import auto_poincare_fit, cohomology_dims, pole_order_at_one


def survey(name: str, max_deg: int) -> None:
    G = catalog.get_group(name)
    print(f"== {name} (order {G.order}, degree {G.degree})")
    for p in prime_factors(G.order):
        series = cohomology_dims(G, p, max_deg)
        fit = auto_poincare_fit(series, max_part=2 * G.order)
        print(f"  p={p}: dims {list(series.dims)}")
        print(f"        fit: numerator {list(fit.numerator)} over "
              f"{[f'(1-t^{d})' for d in fit.denominator_exponents] or [1]}, "
              f"pole order {pole_order_at_one(fit)}")
    rep = full_report(G, max_deg=max_deg)
    flags = {k: v for k, v in rep.as_dict().items()
             if k.endswith("_ok") or k == "r_of_G"}
    print(f"  conditions: {json.dumps(flags, sort_keys=True)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-deg", type=int, default=10)
    parser.add_argument("--stretch", action="store_true",
                        help="include L3(2) and A6 (slow)")
    args = parser.parse_args()
    for name in catalog.names(include_stretch=args.stretch):
        if catalog.get_group(name).order == 1:
            continue
        survey(name, args.max_deg)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
