#!/usr/bin/env python3
"""Regenerate perfbench/answers.json from the catalog generating sets.

    python3 perfbench/pin_answers.py

The pinned answers are those the benchmark cannot take from the catalog:
dims where the catalog has no expected series, the `actions` JSON reports
and the cup-product span tables.  None of them depends on the generating
set, so every seed of the benchmark must reproduce them.
"""

import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from modcoh import catalog, cli  # noqa: E402
from modcoh.errors import NoExpectedData  # noqa: E402
from modcoh.products import product_table_csv  # noqa: E402
from modcoh.resolutions import cohomology_dims  # noqa: E402

import workloads as w  # noqa: E402

DIMS_DEGREE = {"L3_2": 5}  # others: dims-small degrees


def main() -> int:
    dims: dict = {}
    queries = [(name, p) for name in catalog.names()
               if 1 < catalog.get_group(name).order <= w.SMALL_MAX_ORDER
               for p in w.prime_divisors(catalog.get_group(name).order)]
    queries += [(w.LARGE_GROUP, p) for p in w.LARGE_PRIMES]
    for name, p in queries:
        try:
            catalog.expected_record(name, p)
            continue
        except NoExpectedData:
            pass
        deg = DIMS_DEGREE.get(name, w.SMALL_DEGREE)
        series = cohomology_dims(catalog.get_group(name), p, deg)
        dims.setdefault(name, {})[str(p)] = list(series.dims)
    reports = {}
    for name in w.ACTION_GROUPS:
        out = io.StringIO()
        if cli.main(["actions", "--group", name, "--format", "json"], out) != 0:
            raise SystemExit(f"actions failed on {name}")
        reports[name] = json.loads(out.getvalue())
    tables = {name: product_table_csv(catalog.get_group(name), 2, w.CUP_DEGREE)
              for name in w.CUP_GROUPS}
    payload = {
        "source": "modcoh on the catalog generating sets "
                  "(python3 perfbench/pin_answers.py)",
        "dims": dims,
        "actions": reports,
        "product_tables": tables,
    }
    with open(w.ANSWERS_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
