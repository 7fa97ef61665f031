"""Seeded workloads for the modcoh benchmark.

A query set writes its input files and returns a list of queries; a
workload runs two query sets, one after the other, as one batch, and batch
k of a workload depends only on (seed, k).  Queries go through
modcoh's public surface: `modcoh.cli.main(argv, out)` where a subcommand
exists, and `cohmaps.stable_subspace` / `products.product_table_csv` where
none does.  Each query carries the answer it must produce; that answer
never depends on the seed, so a wrong number fails the run on every seed.

The seed picks a relabelling of the points for every group file, the
`gens:` subgroups and the random modules.  A relabelled copy of the catalog
generating set keeps the catalog's element order, so the work of a query
does not depend on the seed; random generating sets (which reorder the
elements and change the ranks of greedily pruned resolutions) would move
a run's time by up to 2x between seeds, see perfbench/README.md.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from modcoh import catalog, cli, cohmaps, fileio, products
from modcoh.cohmaps import clear_context_cache
from modcoh.errors import NoExpectedData
from modcoh.gmodules import (
    direct_sum,
    permutation_module,
    regular_module,
    tensor_module,
    trivial_module,
)
from modcoh.groups import Permutation, subgroup_closure, sylow
from modcoh.resolutions import clear_resolution_cache

ANSWERS_PATH = Path(__file__).resolve().parent / "answers.json"

# dims-small: every nontrivial catalog group of order <= 48, at each prime
# dividing the order; the two costliest groups stop at degree 10.
SMALL_MAX_ORDER = 48
SMALL_DEGREE = 12
SMALL_DEGREE_HEAVY = {"Z2xZ2xZ2": 10, "Z3Q16": 10}
LARGE_GROUP, LARGE_PRIMES, LARGE_DEGREE = "L3_2", (2, 3, 7), 4
CUP_GROUPS = ("Z2xZ2", "D8", "Q8", "A4", "S4")  # as in scripts/sphere_search.py
CUP_DEGREE = 6
MAPS_DEGREE = 4
MODULE_DIM_CAP = 12
ACTION_GROUPS = ("S4", "Q16", "Z3Q16", "D6", "Z12")


@dataclass
class Query:
    """One timed call plus the check of its result.

    `call` is timed; `check(result)` returns None or a mismatch message.
    `cold` queries start with empty resolution and context caches.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    cold: bool = True


def clear_caches() -> None:
    clear_resolution_cache()
    clear_context_cache()


def prime_divisors(n: int) -> list[int]:
    return [q for q in range(2, n + 1)
            if n % q == 0 and all(q % d for d in range(2, int(q ** 0.5) + 1))]


def load_answers(path: Path = ANSWERS_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def expected_dims(answers: dict, name: str, p: int, max_deg: int) -> list[int]:
    """Catalog series where one exists, else the pinned table."""
    try:
        return list(catalog.expected_dims(name, p, max_deg).dims)
    except NoExpectedData:
        pinned = answers["dims"][name][str(p)]
        if len(pinned) <= max_deg:
            raise ValueError(f"pinned dims for {name} p={p} stop at degree "
                             f"{len(pinned) - 1}, need {max_deg}")
        return pinned[: max_deg + 1]


# -- inputs -------------------------------------------------------------------

def group_text(name: str, degree: int, gens) -> str:
    lines = [f"name {name}", f"degree {degree}"]
    lines += ["gen [" + ",".join(map(str, g.images)) + "]" for g in gens]
    return "\n".join(lines) + "\n"


def relabelled_generators(G, rng: random.Random) -> list[Permutation]:
    """The catalog generators conjugated by a random permutation of the points.

    Element order and multiplication table are those of the catalog group.
    """
    sigma = list(range(G.degree))
    rng.shuffle(sigma)
    inv = [0] * G.degree
    for x, y in enumerate(sigma):
        inv[y] = x
    out = []
    for idx in G.generator_indices:
        g = G.elements[idx].images
        out.append(Permutation(tuple(sigma[g[inv[x]]] for x in range(G.degree))))
    return out


def random_module(G, p: int, rng: random.Random):
    """Sum or tensor of trivial, regular and permutation modules.

    Shapes are drawn until their dimension is at most MODULE_DIM_CAP, and
    only then built, so input generation never allocates a large module.
    """
    atoms = [trivial_module(G, p), regular_module(G, p)]
    g = rng.randrange(1, G.order)
    C = subgroup_closure(G, [g])
    if C.order < G.order:
        atoms.append(permutation_module(G, C, p))
    P = sylow(G, p)
    if P.order < G.order:
        atoms.append(permutation_module(G, P, p))
    while True:
        kind = rng.choice(("sum2", "sum3", "tensor", "mixed"))
        a, b, c = (rng.choice(atoms) for _ in range(3))
        dim = {"sum2": a.dim + b.dim, "sum3": a.dim + b.dim + c.dim,
               "tensor": a.dim * b.dim, "mixed": a.dim * b.dim + c.dim}[kind]
        if dim > MODULE_DIM_CAP:
            continue
        if kind == "sum2":
            return direct_sum(a, b)
        if kind == "sum3":
            return direct_sum(direct_sum(a, b), c)
        if kind == "tensor":
            return tensor_module(a, b)
        return direct_sum(tensor_module(a, b), c)


# -- query builders -------------------------------------------------------------

def run_cli(argv: list[str]):
    out = io.StringIO()
    rc = cli.main(argv, out)
    return rc, out.getvalue()


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def dims_query(kind: str, path: Path, p: int, deg: int, want: list[int]) -> Query:
    argv = ["dims", "--group", f"file:{path}", "--p", str(p),
            "--max-deg", str(deg), "--format", "csv"]

    def check(result):
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        got = [int(r["dim"]) for r in _csv_rows(text)]
        return None if got == want else f"dims {got} != {want}"

    return Query(kind, lambda: run_cli(argv), check)


def maps_query(kind: str, path: Path, sub: str) -> Query:
    argv = ["maps", "--group", f"file:{path}", "--p", "2", "--sub", sub,
            "--max-deg", str(MAPS_DEGREE), "--dcheck", "--format", "csv"]

    def check(result):
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        rows = _csv_rows(text)
        if len(rows) != MAPS_DEGREE + 1:
            return f"{len(rows)} rows"
        for row in rows:
            trres = next(v for k, v in row.items() if k.startswith("tr.res"))
            if trres != "yes" or row["double_coset_ok"] != "yes":
                return f"degree {row['i']}: tr.res={trres}, " \
                       f"double_coset_ok={row['double_coset_ok']}"
        return None

    return Query(kind, lambda: run_cli(argv), check, cold=False)


def module_query(kind: str, group_path: Path, module_path: Path,
                 task: str) -> Query:
    argv = ["module", "--group", f"file:{group_path}", "--file",
            str(module_path), "--task", task]

    def check(result):
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        fields = dict(line.split(": ", 1) for line in text.splitlines())
        if task == "projective":
            direct = fields["projective"].split()[0]
            ok = direct == fields["chouinard"] and fields["agree"] == "True"
        else:
            ok = (fields["complexity"].split()[0] == fields["elementary_abelian_max"]
                  and fields["agree"] == "True")
        return None if ok else text.replace("\n", "; ")

    return Query(kind, lambda: run_cli(argv), check, cold=False)


def actions_query(kind: str, path: Path, want: dict) -> Query:
    argv = ["actions", "--group", f"file:{path}", "--format", "json"]

    def check(result):
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        got = json.loads(text)
        return None if got == want else f"report {got} != {want}"

    return Query(kind, lambda: run_cli(argv), check)


# -- query sets ----------------------------------------------------------------

def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def dims_small(rng, workdir: Path, answers: dict) -> list[Query]:
    batch = []
    for name in catalog.names():
        G = catalog.get_group(name)
        if G.order == 1 or G.order > SMALL_MAX_ORDER:
            continue
        deg = SMALL_DEGREE_HEAVY.get(name, SMALL_DEGREE)
        for p in prime_divisors(G.order):
            path = _write(workdir / f"{name}_p{p}.grp",
                          group_text(name, G.degree, relabelled_generators(G, rng)))
            batch.append(dims_query(
                f"dims {name} p={p}", path, p, deg,
                expected_dims(answers, name, p, deg)))
    return batch


def dims_large(rng, workdir: Path, answers: dict) -> list[Query]:
    G = catalog.get_group(LARGE_GROUP)
    batch = []
    for p in LARGE_PRIMES:
        path = _write(workdir / f"{LARGE_GROUP}_p{p}.grp",
                      group_text(LARGE_GROUP, G.degree, relabelled_generators(G, rng)))
        batch.append(dims_query(
            f"dims {LARGE_GROUP} p={p}", path, p, LARGE_DEGREE,
            expected_dims(answers, LARGE_GROUP, p, LARGE_DEGREE)))
    return batch


def maps_cup(rng, workdir: Path, answers: dict) -> list[Query]:
    """One warm session per group; caches are cleared at session start only."""
    batch = []
    p = 2
    for name in CUP_GROUPS:
        G0 = catalog.get_group(name)
        text = group_text(name, G0.degree, relabelled_generators(G0, rng))
        path = _write(workdir / f"{name}.grp", text)
        G = fileio.parse_group_file(text)
        dims = expected_dims(answers, name, p, CUP_DEGREE)
        session: dict = {}

        def load(text=text, session=session):
            session["G"] = fileio.parse_group_file(text)
            return session["G"].order

        batch.append(Query(
            f"{name} load", load,
            lambda order, n=G.order: None if order == n else f"order {order}"))
        for i in range(CUP_DEGREE + 1):
            batch.append(Query(
                f"{name} stable {i}",
                lambda i=i, session=session: cohmaps.stable_subspace(session["G"], p, i)[0],
                lambda got, want=dims[i]: None if got == want else f"{got} != {want}",
                cold=False))
        want_table = answers["product_tables"][name]
        batch.append(Query(
            f"{name} cup table",
            lambda session=session: products.product_table_csv(session["G"], p, CUP_DEGREE),
            lambda got, want=want_table: None if got == want else "table differs",
            cold=False))
        seeds = rng.sample(range(1, G.order), min(2, G.order - 1))
        for k, sub in enumerate(("sylow:2", "gens:" + ",".join(map(str, seeds)))):
            batch.append(maps_query(f"{name} maps {k}", path, sub))
        # Complexity runs on p-groups only: elsewhere it resolves every
        # elementary abelian restriction, and its time swings 50-fold with
        # the module drawn.
        tasks = ("projective", "complexity") if G.is_p_group(p) else ("projective",)
        for task in tasks:
            M = random_module(G, p, rng)
            mats = [M.action[g] for g in G.generator_indices]
            mpath = _write(workdir / f"{name}_{task}.mod",
                           fileio.format_module_file(p, mats))
            batch.append(module_query(f"{name} module {task}", path,
                                      mpath, task))
    return batch


def actions(rng, workdir: Path, answers: dict) -> list[Query]:
    batch = []
    for name in ACTION_GROUPS:
        G = catalog.get_group(name)
        path = _write(workdir / f"{name}.grp",
                      group_text(name, G.degree, relabelled_generators(G, rng)))
        batch.append(actions_query(f"actions {name}", path,
                                   answers["actions"][name]))
    return batch


# Two workloads, each the concatenation of two query sets: the run budget
# allows runs of most of a minute for two workloads, not for four.
WORKLOADS = {
    "dims": (dims_small, dims_large),
    "maps-actions": (maps_cup, actions),
}

# Layers each workload must exercise (checked in the traced run).
STRESSED_LAYERS = {
    "dims": ("cli", "groups", "fplinalg", "gmodules", "resolutions"),
    "maps-actions": ("cli", "groups", "fplinalg", "gmodules", "resolutions",
                     "cohmaps", "products", "actions"),
}


def make_batch(workload: str, seed: int, index: int, workdir: Path,
               answers: dict) -> list[Query]:
    """Batch `index` of the workload's input stream for `seed`."""
    rng = random.Random(seed * 1_000_003 + index)
    batch_dir = workdir / f"batch{index}"
    batch_dir.mkdir(parents=True, exist_ok=True)
    return [q for part in WORKLOADS[workload] for q in part(rng, batch_dir, answers)]
