"""The surface of `src/modcoh`: every def is reached from the programs that ship.

The CLI, `scripts/` and `perfbench/` are the callers.  A def or class in
`src/modcoh` whose name appears nowhere in those files, outside its own
definition, is code that only tests call: an oracle, which lives beside its
tests, or dead code.  A name counts where it appears as a Name, an
Attribute, an import alias, or a component of a "modcoh.…" string (the
tracer's hooks name functions that way).  Dunders and `errors.py`, whose
classes are the typed errors callers catch, are exempt.  The allowlist holds
the library calls that README documents, each with the phrase that
documents it.
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


def _names(tree) -> Counter:
    """Every use of a name under tree, by the rules of the module docstring."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
            if node.asname:
                found[node.asname] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.startswith("modcoh."):
            found.update(node.value.split("."))
    return found


def _uncalled() -> list[str]:
    files = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    uses = sum((_names(tree) for tree in trees.values()), Counter())
    out = []
    for path, tree in trees.items():
        if path.parent != PACKAGE or path.name == "errors.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if uses[name] <= _names(node)[name]:
                    out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_every_def_in_src_has_a_caller():
    uncalled = [entry for entry in _uncalled() if entry.split()[1] not in LIBRARY_API]
    assert not uncalled, "defs that only tests reach (move them beside their tests): " + \
        ", ".join(uncalled)


def test_the_allowlist_is_documented_library_api():
    """Each allowlisted name is documented in README, and still has no
    caller in the shipped programs, so no entry outlives its reason."""
    readme = (ROOT / "README.md").read_text()
    for name, phrase in LIBRARY_API.items():
        assert phrase in readme, (name, phrase)
    allowed = {entry.split()[1] for entry in _uncalled()} & set(LIBRARY_API)
    assert allowed == set(LIBRARY_API), set(LIBRARY_API) - allowed
