"""The layers import downwards only: the run map knows nothing of the
package, and the chain knows nothing of it but the run map, so neither
can come to depend on HTLCs, channels or the race."""

import ast
from pathlib import Path

import htlcrace

PACKAGE = Path(htlcrace.__file__).parent


def package_imports(module: str) -> set[str]:
    """The htlcrace modules `module` imports, by their names in the package."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("htlcrace.") for alias in node.names
                         if alias.name.split(".")[0] == "htlcrace")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "htlcrace":
                continue
            base = (node.module or "").removeprefix("htlcrace").lstrip(".")
            if base:
                found.add(base)
            else:  # from . import runs
                found.update(alias.name for alias in node.names)
    return found


def test_run_map_imports_nothing_from_the_package():
    assert package_imports("runs") == set()


def test_chain_imports_only_the_run_map():
    assert package_imports("chain") == {"runs"}


def test_the_reader_sees_each_import_form():
    """package_imports finds what the other two tests rely on it to find."""
    assert package_imports("channel") == {"runs", "chain"}
    assert {"runs", "chain", "channel", "fees"} <= package_imports("attack")
