"""Every function, method and class of the package has a caller.

A definition in src/hhi (dunders aside) must be named somewhere in
src/hhi outside its own body, or in the benchmark's perfbench/*.py,
which looks some names up by string.  The guard matches names, not
bindings: a name is used wherever it appears, so a helper that shares
its name with a used one slips past (InvariantKey.from_obj did, through
LaurentPoly.from_obj), and a name in a comment or docstring does not
count.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/hhi/*.py"))
BENCH = sorted(ROOT.glob("perfbench/*.py"))

# name -> why it stays without a caller
ALLOWED = {
    "wall_factor": "the factor of one direction alone; tests and the acceptance "
                   "criteria multiply it in the ring to check the algebra",
    "equivariant_comb_expand": "the base of the planned --method recursion, "
                               "which gives it a caller",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_in(tree):
    """Every identifier a tree reads, as a multiset: names, attributes,
    and string constants that are identifiers (as getattr takes them)."""
    out = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out[node.value] += 1
    return out


def uncalled(sources, outside=()):
    """(label, line, name) of each non-dunder definition in sources, a
    {label: source text} mapping, whose name appears nowhere in sources
    outside its own body, nor in the iterable outside."""
    trees = {label: ast.parse(text) for label, text in sources.items()}
    used = sum((names_in(tree) for tree in trees.values()), collections.Counter())
    used.update(outside)
    found = []
    for label, tree in trees.items():
        for node in ast.walk(tree):
            name = getattr(node, "name", "")
            if not isinstance(node, DEFS) or (name.startswith("__") and name.endswith("__")):
                continue
            body = ast.Module(body=node.body + node.decorator_list, type_ignores=[])
            if used[name] - names_in(body)[name] <= 0:
                found.append((label, node.lineno, name))
    return sorted(found)


def test_guard_flags_uncalled_helpers():
    src = {
        "a.py": "def used():\n    return 1\n\n"
                "def dead():\n    return used()\n\n"
                "def recurses(k):\n    return recurses(k - 1) if k else 0\n\n"
                "class Box:\n    def open(self):\n        return Box()\n"
                "    def __len__(self):\n        return 0\n",
        "b.py": "import a\nprint(getattr(a, 'Box'))\n",
    }
    assert uncalled(src) == [("a.py", 4, "dead"), ("a.py", 7, "recurses"),
                             ("a.py", 11, "open")]
    assert uncalled(src, outside=["dead", "open"]) == [("a.py", 7, "recurses")]


def test_every_definition_has_a_caller():
    sources = {p.name: p.read_text() for p in SOURCES}
    bench = sum((names_in(ast.parse(p.read_text())) for p in BENCH), collections.Counter())
    flagged = uncalled(sources, bench.elements())
    assert [entry for entry in flagged if entry[2] not in ALLOWED] == []
    # an allowed name that gained a caller leaves the list
    assert {name for _, _, name in flagged} == set(ALLOWED)
