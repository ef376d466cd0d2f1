"""The layers import downwards only: the run map knows nothing of the
package, and the chain knows nothing of it but the run map, so neither
can come to depend on HTLCs, channels or the race.  A configuration error
has one type, fees.ConfigError, in every layer, and a refused channel
operation one, channel.ChannelError.  The attack run raises no
ConfigError: validate_config refuses a config before it starts.  The
package exports exactly its public names.  The layers below fees compute
without floats, and fees only where it names them."""

import ast
import builtins
import types
from collections import Counter
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


def test_the_run_raises_no_config_error():
    """validate_config works out set-up from the config and raises every
    refusal before the run starts: a set-up that does not go as planned is
    an engine fault, so no ConfigError is raised inside class _Run."""
    tree = ast.parse((PACKAGE / "attack.py").read_text())
    runs = [node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "_Run"]
    assert len(runs) == 1
    raised = [node.lineno for node in ast.walk(runs[0]) if isinstance(node, ast.Raise)
              and "ConfigError" in {getattr(n, "id", getattr(n, "attr", None))
                                    for n in ast.walk(node.exc or node)}]
    assert raised == []


def test_all_names_exactly_the_public_attributes():
    """htlcrace.__all__ names each public attribute of the package that is
    not a module, once, and nothing else: a deleted type leaves no dangling
    export and a new one no missing one."""
    public = {name for name, obj in vars(htlcrace).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert sorted(htlcrace.__all__) == sorted(public)


EXACT_MODULES = ("chain", "channel", "runs", "mitigations", "attack")
FLOAT_CALLS = ("uniform", "isfinite")  # a float draw, a float check


def inexact_nodes(module: str) -> list[tuple[int, str, str]]:
    """(line, where, what) of each float literal, true division, `float`
    name and call of a FLOAT_CALLS function in `module`, `where` being the
    top-level function or class it is in, but the `float` in a
    `dynamic_delta` field's annotation."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    allowed = {id(node) for field in ast.walk(tree) if isinstance(field, ast.AnnAssign)
               and getattr(field.target, "id", None) == "dynamic_delta"
               for node in ast.walk(field.annotation)
               if isinstance(node, ast.Name) and node.id == "float"}
    found = []
    for top in tree.body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append((node.lineno, where, f"float literal {node.value!r}"))
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append((node.lineno, where, "true division"))
            elif isinstance(node, ast.Name) and node.id == "float" and id(node) not in allowed:
                found.append((node.lineno, where, "float"))
            elif isinstance(node, ast.Call) and getattr(
                    node.func, "attr", getattr(node.func, "id", None)) in FLOAT_CALLS:
                found.append((node.lineno, where, f"{ast.unparse(node.func)} call"))
    return found


# Where fees still computes in floats, by construct: the window average's
# `/ window` and fraction_of_time_above's quotient, output values written to
# CSV; the fill share drawn by rng.uniform, whose draws set the artifacts'
# bytes; the float fill fields and the float return annotations; and
# ingest_feerate_csv's float parse and its isfinite check, which an exact
# ingest of the feerate text would remove.
FEES_INEXACT = Counter({
    ("ingest_feerate_csv", "float"): 1,
    ("ingest_feerate_csv", "math.isfinite call"): 1,
    ("victim_available_space", "float"): 1,
    ("victim_available_space", "true division"): 1,
    ("fraction_of_time_above", "float"): 2,
    ("fraction_of_time_above", "true division"): 1,
    ("FeeAnalysisConfig", "float"): 2,
    ("FeeAnalysisConfig", "float literal 0.3"): 1,
    ("FeeAnalysisConfig", "float literal 1.0"): 1,
    ("run_fee_analysis", "float"): 2,
    ("synthetic_blocks", "rng.uniform call"): 1,
})


def test_the_simulation_layers_compute_exactly():
    """Fees, weights and heights are integers, and a slope is a Fraction:
    the chain, channel, run-map, mitigation and attack layers hold no float
    literal, no true division, no float draw or check and no float, but the
    annotations of the two dynamic_delta fields, which accept a float slope
    from a caller.  The fee layer holds exactly the floats FEES_INEXACT
    names, so its filler buckets and window sums compute exactly."""
    assert {module: inexact_nodes(module) for module in EXACT_MODULES} \
        == dict.fromkeys(EXACT_MODULES, [])
    assert Counter((where, what) for _, where, what in inexact_nodes("fees")) == FEES_INEXACT
    annotations = [(path.stem, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.AnnAssign)
                   and getattr(node.target, "id", None) == "dynamic_delta"
                   and "float" in ast.unparse(node.annotation)]
    assert [module for module, _ in annotations] == ["attack", "mitigations"]
