"""Every module-level function and class of the engine has a use in the
engine.

A function or class that only the tests use belongs in a test module, next
to the reference modules.  The AST of each module under `src/weylconvex`
is walked for references: a bare name in the defining module or in a
module that imports it, and `module.name` through a module imported whole.
A definition's references inside its own body do not count, and neither
does an import that is never used.  Names exported from `__init__` are the
public surface and need no caller.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "weylconvex"
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)

# Kept without an engine caller, with the reason.
ALLOWED = {
    ("quadfield", "two_cos_exact"): "perfbench/workloads.py draws angles through it",
}


def _module_trees():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _aliases(tree):
    """Local names bound by relative imports: name -> (module, attr or None)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None:  # from . import perm
                    out[a.asname or a.name] = (a.name, None)
                else:
                    out[a.asname or a.name] = (node.module, a.name)
    return out


def _references(module, tree, defined):
    """(module, name) pairs of definitions referred to in this module's code."""
    aliases = _aliases(tree)
    found = set()

    def visit(node, inside):
        for sub in ast.walk(node):
            ref = None
            if isinstance(sub, ast.Name):
                if (module, sub.id) in defined:
                    ref = (module, sub.id)
                elif aliases.get(sub.id, (None, None))[1] is not None:
                    ref = aliases[sub.id]
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = aliases.get(sub.value.id)
                if target is not None and target[1] is None:
                    ref = (target[0], sub.attr)
            if ref is not None and ref != inside:
                found.add(ref)

    for node in tree.body:
        own = (module, node.name) if isinstance(node, DEFINITIONS) else None
        visit(node, own)
    return found


def _defined_used_exported():
    trees = _module_trees()
    defined = {
        (m, node.name)
        for m, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS)
    }
    used = set()
    for m, tree in trees.items():
        if m != "__init__":
            used |= _references(m, tree, defined)
    exported = {v for v in _aliases(trees["__init__"]).values() if v[1] is not None}
    return defined, used, exported


def test_every_function_has_an_engine_caller_or_is_exported():
    defined, used, exported = _defined_used_exported()
    orphans = sorted(defined - used - exported - set(ALLOWED))
    assert not orphans, f"functions or classes with no caller in src/ and not exported: {orphans}"


def test_allowlist_names_only_uncalled_functions():
    # An allowlisted name that gains a caller or goes away leaves the list.
    defined, used, _ = _defined_used_exported()
    for entry in ALLOWED:
        assert entry in defined and entry not in used, entry
