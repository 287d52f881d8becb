"""Every public name is used by the package itself, or is listed here with its reason.

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


def referenced_names() -> set[str]:
    """Names read as a variable or an attribute in a module other than __init__;
    a def or class line binds its name and so does not count."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":   # it lists every public name
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_in_the_package_or_a_reason():
    unused = sorted(set(qnogo.__all__) - referenced_names() - set(ALLOWED))
    assert unused == [], f"public names that nothing in src/qnogo uses: {unused}"


def test_the_allowlist_names_only_public_names_without_a_caller():
    assert set(ALLOWED) <= set(qnogo.__all__)
    assert not set(ALLOWED) & referenced_names()
