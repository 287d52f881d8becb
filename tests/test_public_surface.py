"""Every public name is used by the package itself, or is listed here with its reason and
read by perfbench, every private module-level name is read somewhere in the package, and
every parameter with a default of a public callable that the package or perfbench reads, or
that the allowlist keeps, is passed, with another value than its default's literal, by some
direct call there, or is listed here with its reason.

A helper that only tests call duplicates a path the command line runs, and
its copy can drift from it; checks belong on the path that stays.
"""

import ast
from pathlib import Path

import qnogo

SRC = Path(qnogo.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"

# public names that nothing in src/qnogo calls, each with why it stays; perfbench reads
# each, since a name that only library users might want is a path no command runs
ALLOWED = {
    "survey_random_unitaries": "the Haar survey, which perfbench's run_survey calls",
    "polar_set": "the polar grid that perfbench's run_survey passes to the survey",
    "target_hadamard9": "the Hadamard target that perfbench's run_survey passes to the survey",
}


# parameters with a default that no direct call in src/qnogo or perfbench passes, each with
# why it stays
PARAMETERS = {
    "haar_unitaries.dim": "the tests draw seeded 4x4 candidates with it; the survey draws 2x2",
    "haar_unitaries.seed": "the tests draw seeded candidates; the survey passes its generator",
}


MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
BENCH = [ast.parse(path.read_text(encoding="utf-8")) for path in PERFBENCH.glob("*.py")]


def read_names(skip: str = "") -> set[str]:
    """Names read as a variable or an attribute in any module but skip; a def or class line,
    or an assignment, binds its name and so does not count."""
    names = set()
    for module, tree in MODULES.items():
        if module == skip:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def referenced_names() -> set[str]:
    return read_names(skip="__init__.py")   # it lists every public name


def bench_names() -> set[str]:
    """Names used as a variable or an attribute anywhere under perfbench."""
    names = set()
    for tree in BENCH:
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return names


def private_names() -> dict[str, str]:
    """Each module-level function, class or constant whose name starts with one underscore,
    with the module that binds it."""
    out = {}
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            out.update((name, module) for name in names
                       if name.startswith("_") and not name.startswith("__"))
    return out


def test_every_public_name_has_a_caller_in_the_package_or_a_reason():
    unused = sorted(set(qnogo.__all__) - referenced_names() - set(ALLOWED))
    assert unused == [], f"public names that nothing in src/qnogo uses: {unused}"


def test_the_allowlist_names_only_public_names_without_a_caller():
    assert set(ALLOWED) <= set(qnogo.__all__)
    assert not set(ALLOWED) & referenced_names()


def test_perfbench_reads_every_allowlisted_name():
    assert BENCH   # the walk found perfbench's modules
    unread = sorted(set(ALLOWED) - bench_names())
    assert unread == [], f"allowlisted names that nothing in perfbench reads: {unread}"


def test_every_private_module_level_name_is_read_in_the_package():
    # a leftover helper that only its tests still call fails here
    private, read = private_names(), read_names()
    assert len(private) > 50   # the walk found the modules' definitions
    unread = sorted(f"{module}:{name}" for name, module in private.items() if name not in read)
    assert unread == [], f"private names that nothing in src/qnogo reads: {unread}"


def defaults(node) -> list[tuple[int | None, str, ast.expr]]:
    """(position, or None if keyword-only, name and default expression) of each parameter
    with a default: of a function, of a class's __init__ after self, or else of a record
    class's fields."""
    if isinstance(node, ast.FunctionDef):
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        return ([(i, a.arg, args.defaults[i - first]) for i, a in enumerate(positional)
                 if i >= first]
                + [(None, a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d])
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            return [(None if i is None else i - 1, name, d) for i, name, d in defaults(item)]
    fields = [item for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return [(i, f.target.id, f.value) for i, f in enumerate(fields) if f.value is not None]


def direct_calls(trees) -> dict[str, list[ast.Call]]:
    """The calls of each name, as f(...) or x.f(...); a call through a table, t[k](...), is
    no call of the callables in t."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    return calls


def passes(call: ast.Call, position: int | None, name: str, default: ast.expr) -> bool:
    """Whether call passes the parameter name, at position, a value other than the literal
    of its default; *args and **kwargs pass any."""
    if any(k.arg is None for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    given = [k.value for k in call.keywords if k.arg == name]
    if position is not None and len(call.args) > position:
        given.append(call.args[position])
    return any(not (isinstance(g, ast.Constant) and ast.dump(g) == ast.dump(default))
               for g in given)


def unset_parameters() -> list[str]:
    """callable.parameter for each parameter with a default of a public module-level function
    or class that src/qnogo or perfbench reads, or that ALLOWED keeps, and that no direct call
    there passes."""
    read = referenced_names() | set(ALLOWED) | bench_names()
    calls = direct_calls([tree for module, tree in MODULES.items() if module != "__init__.py"]
                         + BENCH)
    unset = []
    for tree in MODULES.values():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in read
                    and not node.name.startswith("_")):
                unset += [f"{node.name}.{param}" for position, param, default in defaults(node)
                          if not any(passes(c, position, param, default)
                                     for c in calls.get(node.name, []))]
    return sorted(unset)


def test_every_parameter_with_a_default_is_passed_by_a_caller_or_has_a_reason():
    # a value that no caller sets is a constant; a table's entries are called with none
    assert unset_parameters() == sorted(PARAMETERS)


def test_the_parameter_walk_sees_defaults_fields_and_calls():
    tree = ast.parse("def f(a, b=1, *, c=2): pass\n"
                     "class R:\n    x: int\n    y: int = 0\n"
                     "class K:\n    def __init__(self, u, v=None): pass\n"
                     "f(0, 1)\nm.f(0, c=3)\n{'k': f}['k']()\nR(**kw)\nf(2, b=x)\n")
    f, r, k = tree.body[:3]
    assert [d[:2] for d in defaults(f)] == [(1, "b"), (None, "c")]
    assert [d[:2] for d in defaults(r)] == [(1, "y")]
    assert [d[:2] for d in defaults(k)] == [(1, "v")]
    (_, _, b), (_, _, c) = defaults(f)
    calls = direct_calls([tree])
    assert len(calls["f"]) == 3 and "k" not in calls
    # f(0, 1) passes b its default's own literal, which sets nothing; f(2, b=x) passes a name
    assert [passes(call, 1, "b", b) for call in calls["f"]] == [False, False, True]
    assert [passes(call, None, "c", c) for call in calls["f"]] == [False, True, False]
    assert passes(calls["R"][0], 1, "y", defaults(r)[0][2])
