"""Every definition in `src/opgraphs` is reached by a command.

The walk parses each module with `ast` and works on names: an
identifier (`Name.id` or `Attribute.attr`) reaches every `def` and
`class` of that name, in any module.  Strings and comments reach
nothing.  The roots are `cli.main`, every module-level statement, every
dunder method and the `KEPT` definitions, each kept for the reason
given.  Walking a reached definition reads its decorators, arguments
and body; a nested definition is walked only once its own name is
reached.

Because the walk matches names, not bindings, a method whose name
collides with a reached one (a `neg` on matrices beside the fields'
`neg`, say, or one more `from_json` or `edges`) can hide from it, so
the walk errs towards passing.
"""

import ast
from pathlib import Path

import opgraphs

KEPT = {
    "report.stable_view":
        "the north star and criterion 11 compare reports through it",
    "linalg.Subspace.radical": "the oracle of `Subspace.is_nondegenerate`",
    "linalg.Matrix.det": "criterion 03 asserts determinants with it",
    "serialize.pair_to_json": "the CLI help names it for pair files",
    "serialize.save_pair": "the CLI help names it for pair files",
    "constructions.chow_image":
        "the two-eigenvalue contrast on Q(i) flags (ROADMAP item 9)",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_MODULES = sorted(Path(opgraphs.__file__).parent.glob("*.py"))


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in _MODULES}


def _definitions(trees):
    """Qualified name -> node of every `def` and `class`, nested ones too."""
    defs = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                defs[f"{prefix}.{child.name}"] = child
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    for module, tree in trees.items():
        visit(tree, module)
    return defs


def _names(nodes):
    """Every identifier under `nodes`, without entering a nested definition."""
    found, stack = set(), list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        if not isinstance(node, _DEFS):
            stack.extend(ast.iter_child_nodes(node))
    return found


def _own_parts(node):
    """What a definition runs: decorators, bases or arguments, and body."""
    if isinstance(node, ast.ClassDef):
        head = node.bases + node.keywords
    else:
        head = [node.args] + ([node.returns] if node.returns else [])
    return node.decorator_list + head + node.body


def unreached():
    """Qualified names of the definitions no root reaches, sorted."""
    trees = _trees()
    defs = _definitions(trees)
    by_name = {}
    for qual, node in defs.items():
        by_name.setdefault(node.name, []).append(qual)
    todo = ["cli.main", *KEPT]
    todo += [q for q, node in defs.items()
             if node.name.startswith("__") and node.name.endswith("__")]
    for tree in trees.values():
        for name in _names([s for s in tree.body if not isinstance(s, _DEFS)]):
            todo += by_name.get(name, [])
    reached = set()
    while todo:
        qual = todo.pop()
        if qual not in reached:
            reached.add(qual)
            for name in _names(_own_parts(defs[qual])):
                todo += by_name.get(name, [])
    return sorted(set(defs) - reached)


def test_kept_definitions_exist():
    defs = _definitions(_trees())
    assert [q for q in KEPT if q not in defs] == []


def test_every_definition_is_reached_by_a_command():
    assert unreached() == []
