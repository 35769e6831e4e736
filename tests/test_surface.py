"""Every module-level function and class of the engine is reached from what
runs it: the command line or the benchmark.

A function or class that only the tests use belongs in a test module, next
to the reference modules.  The AST of each module under `src/weylconvex`
is walked for references: a bare name in the defining module or in a
module that imports it, and `module.name` through a module imported whole.
An import that is never used is not a reference.

The walk starts from `cli.main`, from the top-level code of each module
(`__init__` aside), from every `from weylconvex.<module> import <name>` in
`perfbench/`, and from the functions `perfbench/tracing.py` wraps by name
in `TRACED`.  It follows references transitively, so a cluster of
definitions that only call each other is not reached.  Names exported from
`__init__` are not roots: an export needs a caller like any other name.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "weylconvex"
PERFBENCH = ROOT / "perfbench"
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)

# Kept without a caller, with the reason.
ALLOWED = {}


def _module_trees():
    # `__init__` only re-exports, and its exports are not roots.
    return {
        p.stem: ast.parse(p.read_text(), str(p))
        for p in sorted(SRC.glob("*.py"))
        if p.stem != "__init__"
    }


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


def _reference_graph(trees):
    """The (module, name) of every definition, the references in each
    definition's body, and the references in module top-level code."""
    defined = {
        (m, node.name)
        for m, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS)
    }
    edges = {d: set() for d in defined}
    top_level = set()
    for module, tree in trees.items():
        aliases = _aliases(tree)
        for node in tree.body:
            own = (module, node.name) if isinstance(node, DEFINITIONS) else None
            found = edges[own] if own is not None else top_level
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
                if ref is not None:
                    found.add(ref)
    return defined, edges, top_level


def _benchmark_roots():
    """Engine names `perfbench/` imports, and those `TRACED` wraps."""
    roots = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and (node.module or "").startswith("weylconvex.")
            ):
                module = node.module.split(".", 1)[1]
                roots.update((module, a.name) for a in node.names)
            elif (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
            ):
                for entry in node.value.elts:
                    module, func = entry.elts[0].value, entry.elts[1].value
                    roots.add((module, func))
    return roots


def _reached():
    defined, edges, top_level = _reference_graph(_module_trees())
    frontier = [r for r in {("cli", "main")} | top_level | _benchmark_roots() if r in defined]
    reached = set(frontier)
    while frontier:
        for ref in edges[frontier.pop()]:
            if ref in defined and ref not in reached:
                reached.add(ref)
                frontier.append(ref)
    return defined, reached


def test_every_definition_is_reached_from_the_cli_or_the_benchmark():
    defined, reached = _reached()
    orphans = sorted(defined - reached - set(ALLOWED))
    assert not orphans, f"functions or classes that no command or benchmark reaches: {orphans}"


def test_roots_name_engine_definitions_or_constants():
    # The walk treats a root that names nothing as reaching nothing; here
    # such a root means `perfbench/` uses a name the engine no longer has.
    trees = _module_trees()
    defined, _, _ = _reference_graph(trees)
    constants = {
        (m, t.id)
        for m, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    assert ("cli", "main") in defined
    missing = sorted(_benchmark_roots() - defined - constants)
    assert not missing, missing


def test_allowlist_names_only_unreached_definitions():
    # An allowlisted name that gains a caller or goes away leaves the list.
    defined, reached = _reached()
    for entry in ALLOWED:
        assert entry in defined and entry not in reached, entry
