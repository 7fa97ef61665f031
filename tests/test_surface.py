"""The surface of `src/modcoh`: every def is reached from the programs that
ship, and no file imports a name it never reads.

The CLI, `scripts/` and `perfbench/` are the callers.  A def or class in
`src/modcoh` that nothing in those files reaches, outside its own
definition, is code that only tests call: an oracle, which lives beside its
tests, or dead code.  What reaches a def depends on what it is called on:

- a module-level def, through a Name in its own module, an import of it
  from its module (`from .cohmaps import restriction`), an attribute on its
  module (`cohmaps.restriction`, `modcoh.cohmaps.restriction`), or a
  "modcoh.<module>.<name>" string (the tracer's hooks name functions that
  way);
- a method or a class, also through any Attribute of that name, or any
  component of such a string.

So a module-level def is not reached by a method that shares its name.
Dunders and `errors.py`, whose classes are the typed errors callers catch,
are exempt.  The allowlist holds the library calls that README documents,
each with the phrase that documents it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "modcoh"

LIBRARY_API = {
    "ext_dims": "`resolutions.ext_dims(M, N, n)`",
    "syzygy": "`resolutions.syzygy(M, i)`",
    "invariants": "`gmodules.invariants(M)`",
    "dual_module": "`gmodules.dual_module(M)`",
    "cup": "`products.CupRing(G, p, n).cup(a, i, b, j)`",
}

ANY = "."  # the owner key of a use that reaches any method or class


def _uses(tree, module: str | None) -> Counter:
    """Every use under tree, keyed (owner, name), by the rules of the module
    docstring: owner is the module a def must sit in to be reached, or ANY
    for a use that reaches a method or class of that name anywhere.  tree
    is in src module `module`, or in a caller (None)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[module, node.id] += 1
        elif isinstance(node, ast.Attribute):
            owner = node.value
            found[getattr(owner, "id", getattr(owner, "attr", None)), node.attr] += 1
            found[ANY, node.attr] += 1
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.update((node.module.split(".")[-1], alias.name) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.startswith("modcoh."):
            parts = node.value.split(".")
            found[tuple(parts[1:3])] += 1
            found.update((ANY, part) for part in parts[2:])
    return found


def _uncalled(package: dict, callers: list) -> list[str]:
    """The defs in package (module name -> tree) that neither package nor
    callers (trees) reach, as "module.py:line name"."""
    uses = sum((_uses(tree, name) for name, tree in package.items()), Counter())
    for tree in callers:
        uses.update(_uses(tree, None))
    out = []
    for module, tree in package.items():
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            keys = [(module, name)]
            if isinstance(node, ast.ClassDef) or id(node) in methods:
                keys.append((ANY, name))
            own = _uses(node, module)
            if sum(uses[key] - own[key] for key in keys) == 0:
                out.append(f"{module}.py:{node.lineno} {name}")
    return out


def _parse(paths) -> dict:
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def _shipped_uncalled() -> list[str]:
    package = {path.stem: tree for path, tree in _parse(sorted(PACKAGE.glob("*.py"))).items()
               if path.name != "errors.py"}
    callers = [*sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
               PACKAGE / "errors.py"]
    return _uncalled(package, list(_parse(callers).values()))


def test_every_def_in_src_has_a_caller():
    uncalled = [entry for entry in _shipped_uncalled() if entry.split()[1] not in LIBRARY_API]
    assert not uncalled, "defs that only tests reach (move them beside their tests): " + \
        ", ".join(uncalled)


def test_the_allowlist_is_documented_library_api():
    """Each allowlisted name is documented in README, and still has no
    caller in the shipped programs, so no entry outlives its reason."""
    readme = (ROOT / "README.md").read_text()
    for name, phrase in LIBRARY_API.items():
        assert phrase in readme, (name, phrase)
    allowed = {entry.split()[1] for entry in _shipped_uncalled()} & set(LIBRARY_API)
    assert allowed == set(LIBRARY_API), set(LIBRARY_API) - allowed


# A module-level wrapper with no caller beside a called method of the same
# name: the shape `cohmaps.restriction` had before it was deleted.
PLANTED = """\
class MapBuilder:
    def restriction(self, i):
        return self._map(i)

    def _map(self, i):
        return i


def restriction(G, H, p, i):
    return MapBuilder().restriction(i)
"""


def test_a_method_does_not_reach_a_module_level_def_of_its_name():
    builder_call = ast.parse("from modcoh.cohmaps import MapBuilder\n"
                             "MapBuilder().restriction(2)\n")
    package = {"cohmaps": ast.parse(PLANTED)}
    assert _uncalled(package, [builder_call]) == ["cohmaps.py:9 restriction"]
    for call in ("from modcoh.cohmaps import restriction",
                 "from modcoh import cohmaps\ncohmaps.restriction(G, H, 2, 1)",
                 "import modcoh.cohmaps\nmodcoh.cohmaps.restriction(G, H, 2, 1)",
                 "HOOK = 'modcoh.cohmaps.restriction'"):
        assert _uncalled(package, [builder_call, ast.parse(call)]) == [], call


def _unused_imports(tree) -> list[str]:
    """Names that tree's imports bind and that no Name in tree reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    out.append(f"{node.lineno} {bound}")
    return out


def test_every_imported_name_is_read():
    """Over src, scripts and tests; perfbench/ changes only with the benchmark."""
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "tests").glob("*.py"))]
    unused = [f"{path.relative_to(ROOT)}:{entry}"
              for path, tree in _parse(paths).items() for entry in _unused_imports(tree)]
    assert not unused, "imported and never read: " + ", ".join(unused)


def test_an_import_read_nowhere_is_reported():
    tree = ast.parse("from __future__ import annotations\n"
                     "import numpy as np\nimport os.path\nfrom itertools import product\n"
                     "np.zeros(os.path.sep)\n")
    assert _unused_imports(tree) == ["4 product"]
