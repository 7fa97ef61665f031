"""Command-line surface.

Subcommands:

    dims      --group NAME|file:PATH --p P --max-deg N [--format F]
    poincare  --group ... --p P --den 1,1,2 [--max-deg N]
    maps      --group ... --p P --sub SPEC --max-deg N [--dcheck]
    actions   --group ... [--max-deg N]
    module    --group ... --file PATH --task projective|chouinard|complexity

Group sources are catalog names (Z2, Z4, Z2xZ2, D6, D8, Q8, Q16, A4, S4,
Z12, Z3Q16, ...) or `file:path` in the grammar of modcoh.fileio.  Subgroup
specs: `sylow:P`, `center`, `order:N` (first cyclic subgroup of that order
by element scan), or `gens:i,j,...` with element indices.

`--p` must be a prime no larger than fplinalg.MAX_PRIME (2^21); larger
primes would overflow int64 arithmetic and are refused with PrimeTooLarge
and exit code 1 (EXIT_INPUT), before anything is written to stdout.

Exit codes: 0 success/match, 1 input error, 2 catalog-expectation mismatch,
3 rational-function fit failure, 4 failed internal invariant
(InvariantViolation: a computed object failed a consistency check, such as
exactness of a resolution or agreement of the two projectivity tests, so
no answer is printed).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import catalog, fileio, fplinalg
from .actions import full_report
from .cohmaps import double_coset_identity_check, restriction, transfer, \
    trivial_coefficients
from .errors import InvariantViolation, ModcohError, NoExpectedData
from .groups import FiniteGroup, center, prime_factors, subgroup_closure, sylow
from .resolutions import (
    cohomology_dims,
    complexity,
    chouinard_projective,
    is_projective,
    poincare_fit,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MISMATCH = 2
EXIT_NOFIT = 3
EXIT_INVARIANT = 4


def _require_prime(p: int) -> int:
    fplinalg.check_prime_size(p)  # before trial division, which is O(sqrt p)
    if prime_factors(p) != [p]:
        raise ModcohError(f"--p must be prime, got {p}")
    return p


def _load_group(spec: str, cap: int) -> tuple[FiniteGroup, str | None]:
    """Returns (group, catalog name or None for file groups)."""
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        with open(path, "r", encoding="utf-8") as fh:
            return fileio.parse_group_file(fh.read(), cap=cap), None
    return catalog.get_group(spec), spec


def _resolve_subgroup(G: FiniteGroup, spec: str):
    kind, _, rest = spec.partition(":")
    if kind == "sylow":
        return sylow(G, int(rest))
    if kind == "center":
        return center(G)
    if kind == "order":
        want = int(rest)
        for g in range(G.order):
            if G.element_order(g) == want:
                return subgroup_closure(G, [g])
        raise ModcohError(f"no cyclic subgroup of order {want}")
    if kind == "gens":
        seeds = [int(x) for x in rest.split(",") if x != ""]
        return subgroup_closure(G, seeds)
    raise ModcohError(f"cannot resolve subgroup spec {spec!r}")


def _emit_table(header, rows, fmt, out):
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    elif fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        json.dump(payload, out, indent=1, sort_keys=True)
        out.write("\n")
    else:
        widths = [max(len(str(h)), *(len(str(r[k])) for r in rows)) if rows
                  else len(str(h)) for k, h in enumerate(header)]
        out.write("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
        out.write("\n")
        for row in rows:
            out.write("  ".join(str(x).rjust(w) for x, w in zip(row, widths)))
            out.write("\n")


def cmd_dims(args, out) -> int:
    _require_prime(args.p)
    G, name = _load_group(args.group, args.size_cap)
    series = cohomology_dims(G, args.p, args.max_deg)
    expected = None
    if name is not None:
        try:
            expected = catalog.expected_dims(name, args.p, args.max_deg).dims
        except NoExpectedData:
            expected = None
    rows = []
    mismatch = False
    for i, d in enumerate(series.dims):
        if expected is None:
            rows.append((i, d, "-", "-"))
        else:
            ok = d == expected[i]
            mismatch |= not ok
            rows.append((i, d, expected[i], "yes" if ok else "NO"))
    _emit_table(("i", "dim", "expected", "match"), rows, args.format, out)
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _format_poly(coeffs) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            power = "t" if k == 1 else f"t^{k}"
            terms.append(("-" if c < 0 else "+") + f" {mag}{power}"
                         if terms else
                         ("-" if c < 0 else "") + f"{mag}{power}")
    if not terms:
        return "0"
    return " ".join(terms)


def cmd_poincare(args, out) -> int:
    _require_prime(args.p)
    G, _ = _load_group(args.group, args.size_cap)
    exps = [int(x) for x in args.den.split(",") if x != ""] if args.den else []
    series = cohomology_dims(G, args.p, args.max_deg)
    fit = poincare_fit(series, exps)
    if fit is None:
        out.write(f"no fit: denominators {exps} through degree "
                  f"{args.max_deg}\n")
        return EXIT_NOFIT
    den = " ".join(f"(1-t^{d})" for d in fit.denominator_exponents) or "1"
    if args.format == "json":
        json.dump({"numerator": list(fit.numerator),
                   "denominator_exponents": list(fit.denominator_exponents),
                   "verified_through": fit.verified_through},
                  out, sort_keys=True)
        out.write("\n")
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("numerator", "denominator_exponents",
                         "verified_through"))
        writer.writerow((" ".join(map(str, fit.numerator)),
                         " ".join(map(str, fit.denominator_exponents)),
                         fit.verified_through))
    else:
        out.write(f"numerator: {_format_poly(fit.numerator)}\n")
        out.write(f"denominator: {den}\n")
        out.write(f"verified through degree {fit.verified_through}\n")
    return EXIT_OK


def cmd_maps(args, out) -> int:
    _require_prime(args.p)
    G, _ = _load_group(args.group, args.size_cap)
    H = _resolve_subgroup(G, args.sub)
    M = trivial_coefficients(G, args.p)
    index_mod_p = (G.order // H.order) % args.p
    rows = []
    for i in range(args.max_deg + 1):
        res = restriction(G, H, M, i)
        tr = transfer(G, H, M, i)
        comp = (tr.matrix @ res.matrix) % args.p
        import numpy as np
        want = (index_mod_p * np.eye(comp.shape[0], dtype=np.int64)) % args.p
        ok = bool(np.array_equal(comp, want))
        row = [i, res.rank(), tr.rank(), "yes" if ok else "NO"]
        if args.dcheck:
            row.append("yes" if double_coset_identity_check(G, H, H, M, i)
                       else "NO")
        rows.append(tuple(row))
    header = ["i", "rank_res", "rank_tr", f"tr.res=[G:H]({index_mod_p})"]
    if args.dcheck:
        header.append("double_coset_ok")
    _emit_table(tuple(header), rows, args.format, out)
    bad = any("NO" in row for row in rows)
    return EXIT_MISMATCH if bad else EXIT_OK


def cmd_actions(args, out) -> int:
    G, _ = _load_group(args.group, args.size_cap)
    rep = full_report(G, max_deg=args.max_deg)
    payload = rep.as_dict()
    if args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        head = ["group", "order", "r_of_G", "swan_ok", "twop_central_ok",
                "twop_cyclic_ok", "mtw_ok", "wolf_pq_ok", "periodic_ok"]
        writer.writerow(head + ["p", "p2_ok", "p_rank", "duflot_z",
                                "krull_pole", "observed_dim_period"])
        for p, pr in sorted(payload["primes"].items(), key=lambda kv: int(kv[0])):
            writer.writerow([payload[k] for k in head] +
                            [p, pr["p2_ok"], pr["p_rank"], pr["duflot_z"],
                             pr["krull_pole"], pr["observed_dim_period"]])
    elif args.format == "json":
        json.dump(payload, out, indent=1, sort_keys=True)
        out.write("\n")
    else:
        for key in ("group", "order", "r_of_G", "swan_ok", "twop_central_ok",
                    "twop_cyclic_ok", "mtw_ok", "wolf_pq_ok", "periodic_ok"):
            out.write(f"{key}: {payload[key]}\n")
        for p, pr in sorted(payload["primes"].items(), key=lambda kv: int(kv[0])):
            flat = ", ".join(f"{k}={v}" for k, v in sorted(pr.items()))
            out.write(f"p={p}: {flat}\n")
    return EXIT_OK


def cmd_module(args, out) -> int:
    G, _ = _load_group(args.group, args.size_cap)
    with open(args.file, "r", encoding="utf-8") as fh:
        M = fileio.parse_module_file(fh.read(), G)
    if args.task == "projective":
        direct = is_projective(M)
        chou = chouinard_projective(M)
        if direct != chou:
            raise InvariantViolation("projectivity tests disagree")
        out.write(f"projective: {direct} (minimal-rank probe degrees 1-2)\n")
        out.write(f"chouinard: {chou}\n")
        out.write("agree: True\n")
    elif args.task == "chouinard":
        out.write(f"chouinard: {chouinard_projective(M)}\n")
    elif args.task == "complexity":
        from .resolutions import complexity_elementary_max
        c = complexity(M, probe_deg=args.probe_deg)
        cmax = complexity_elementary_max(M, probe_deg=args.probe_deg)
        out.write(f"complexity: {c} (probe degree {args.probe_deg})\n")
        out.write(f"elementary_abelian_max: {cmax}\n")
        out.write(f"agree: {c == cmax}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modcoh",
        description="mod-p cohomology workbench for finite groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--group", required=True,
                       help="catalog name or file:PATH")
        p.add_argument("--format", choices=("text", "csv", "json"),
                       default="text")
        p.add_argument("--size-cap", type=int, default=2000,
                       help="group enumeration cap for file groups")

    d = sub.add_parser("dims", help="cohomology dimension table")
    common(d)
    d.add_argument("--p", type=int, required=True)
    d.add_argument("--max-deg", type=int, default=8)

    q = sub.add_parser("poincare", help="fit a rational Poincare series")
    common(q)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--den", default="",
                   help="comma-separated denominator exponents, e.g. 1,1,2")
    q.add_argument("--max-deg", type=int, default=10)

    m = sub.add_parser("maps", help="restriction/transfer report")
    common(m)
    m.add_argument("--p", type=int, required=True)
    m.add_argument("--sub", required=True,
                   help="sylow:P | center | order:N | gens:i,j,...")
    m.add_argument("--max-deg", type=int, default=4)
    m.add_argument("--dcheck", action="store_true",
                   help="also verify the double-coset identity")

    a = sub.add_parser("actions", help="sphere-action condition report")
    common(a)
    a.add_argument("--max-deg", type=int, default=10)

    mod = sub.add_parser("module", help="projectivity/complexity of a module file")
    common(mod)
    mod.add_argument("--file", required=True)
    mod.add_argument("--task", choices=("projective", "chouinard", "complexity"),
                     required=True)
    mod.add_argument("--probe-deg", type=int, default=12)
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "dims": cmd_dims,
        "poincare": cmd_poincare,
        "maps": cmd_maps,
        "actions": cmd_actions,
        "module": cmd_module,
    }[args.command]
    try:
        return handler(args, out)
    except (ModcohError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT if isinstance(exc, InvariantViolation) else EXIT_INPUT


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
