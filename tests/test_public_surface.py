"""Every public name is used by the package itself, or is listed here with its reason,
and every private module-level name is read somewhere in the package.

A helper that only tests call duplicates a path the command line runs, and
its copy can drift from it; checks belong on the path that stays.
"""

import ast
from pathlib import Path

import qnogo

SRC = Path(qnogo.__file__).parent

# public names that nothing in src/qnogo calls, each with why it stays
ALLOWED = {
    "pretty_print": "formats a parsed unit back to source; the DSL's round-trip API",
    "cloning_machine": "the paper's copying machine, built from Python rather than a unit",
    "complementing_machine": "the paper's complementing machine, built from Python",
    "conjugating_machine": "the paper's conjugating machine, built from Python",
    "survey_random_unitaries": "the Haar survey, which perfbench's run_survey calls",
    "cnot_in_basis": "the CNOT of one basis, the realizer that each listed-state check passes",
    "polar_pair": "one polar pair by its angle; state_family builds the same pairs in bulk",
    "equatorial_pair": "one equatorial pair by its angle; state_family builds them in bulk",
    "machine_deviations": "per-state deviations for library users; tests pin each against the "
                          "scalar reference",
}


MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


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


def test_every_private_module_level_name_is_read_in_the_package():
    # a leftover helper that only its tests still call fails here
    private, read = private_names(), read_names()
    assert len(private) > 50   # the walk found the modules' definitions
    unread = sorted(f"{module}:{name}" for name, module in private.items() if name not in read)
    assert unread == [], f"private names that nothing in src/qnogo reads: {unread}"
