"""The layers import downwards only: the run map knows nothing of the
package, and the chain knows nothing of it but the run map, so neither
can come to depend on HTLCs, channels or the race.  A configuration error
has one type, fees.ConfigError, in every layer, and a refused channel
operation one, channel.ChannelError."""

import ast
import builtins
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


def subclasses(names: set[str]) -> set[tuple[str, str]]:
    """The (module, class name) of every package class that inherits,
    directly or through another class, from a class named in `names`."""
    bases = {}  # (module, class name) -> the names of its bases
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases[path.stem, node.name] = {getattr(b, "id", getattr(b, "attr", None))
                                               for b in node.bases}
    names = set(names)
    found: set = set()
    while new := {key for key, base in bases.items() if base & names} - found:
        found |= new
        names |= {name for _, name in new}
    return found


def test_config_error_is_the_only_value_error_class():
    """No module defines a second ValueError subclass, directly or through
    another class, for the command line to tell from a configuration error."""
    names = {name for name, obj in vars(builtins).items()
             if isinstance(obj, type) and issubclass(obj, ValueError)}
    assert subclasses(names) == {("fees", "ConfigError")}


def test_channel_error_has_no_subclass():
    """A refused channel operation is told apart by the reason code its
    message starts with, not by a subclass."""
    assert subclasses({"ChannelError"}) == set()
