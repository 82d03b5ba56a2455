"""Every name a module exports through __all__ exists and is read by the
package, so is every other public top-level name and every public method
and property of a public class, no module imports a name it never uses,
and no parameter with a default is a knob the package only ever sets to
one value or a default the package never uses."""

import ast
import importlib
from pathlib import Path

import pytest

import trispec

SRC = Path(trispec.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py")
                 if path.stem != "__init__")

# Wired into the exact Theorem 1 chain for every triangle (ROADMAP item 1);
# kept, with its tests, until that pipeline reads it.
NOT_YET_READ = {("geometry", "subequilateral_hull")}
# Public names outside __all__ that the package does not read, kept on
# purpose.  perfbench/profile_levels.py imports FanTriangle; ROADMAP item 8
# deletes it together with that import.
OUTSIDE_ALL_NOT_READ = {("geometry", "FanTriangle")}
# Wired into the same chain, to place a triangle inside its hull.
MEMBERS_NOT_YET_READ = {("geometry", "Triangle", "contains")}
# Parameters with a default that every call in the package leaves at one
# value, kept on purpose.
ONE_VALUE_DEFAULTS = {
    # perfbench/tracing.py reads the initial grid size off this argument
    ("certify", "boundary_sup", "num"),
    # the Theorem 1 chain for every triangle (ROADMAP item 1) sets it
    ("geometry", "Triangle.contains", "tol"),
}


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def _definitions(tree):
    """Top-level name -> the statement that binds it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node
    return out


def _own_loads(tree, name, definition):
    """Loads of name in its own module outside the statement defining it."""
    inside = {id(node) for node in ast.walk(definition)} if definition else set()
    return any(isinstance(node, ast.Name) and node.id == name
               and isinstance(node.ctx, ast.Load) and id(node) not in inside
               for node in ast.walk(tree))


def _reads_elsewhere(module):
    """Names of module read by the other modules: from-imports, mod.name."""
    names = set()
    for other in MODULES + ["__init__"]:
        if other == module:
            continue
        for node in ast.walk(_tree(other)):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in (module, f"trispec.{module}")):
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == module):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("module", trispec.__all__)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"trispec.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_every_export_is_read_by_the_package(module):
    tree = _tree(module)
    defs = _definitions(tree)
    elsewhere = _reads_elsewhere(module)
    unread = [name for name in _exports(tree)
              if (module, name) not in NOT_YET_READ
              and name not in elsewhere
              and not _own_loads(tree, name, defs.get(name))]
    assert unread == []


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_outside_all_is_read_by_the_package(module):
    tree = _tree(module)
    exports = set(_exports(tree))
    elsewhere = _reads_elsewhere(module)
    unread = [name for name, node in _definitions(tree).items()
              if not name.startswith("_") and name not in exports
              and (module, name) not in OUTSIDE_ALL_NOT_READ
              and name not in elsewhere
              and not _own_loads(tree, name, node)]
    assert unread == []


def _attribute_reads():
    """Every attribute name the package reads, as in obj.name."""
    return {node.attr for module in MODULES + ["__init__"]
            for node in ast.walk(_tree(module))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("module", MODULES)
def test_every_public_member_is_read_by_the_package(module):
    reads = _attribute_reads()
    unread = [(module, cls.name, member.name)
              for cls in _tree(module).body
              if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
              for member in cls.body
              if isinstance(member, ast.FunctionDef)
              and not member.name.startswith("_")
              and member.name not in reads]
    assert [m for m in unread if m not in MEMBERS_NOT_YET_READ] == []


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_no_unused_imports(module):
    tree = _tree(module)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - loaded - set(_exports(tree))) == []


def _constants():
    """Value of every module-level NAME = <literal> binding of the package."""
    out = {}
    for module in MODULES:
        for node in _tree(module).body:
            if not isinstance(node, ast.Assign):
                continue
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                continue
            out.update((t.id, value) for t in node.targets
                       if isinstance(t, ast.Name))
    return out


def _value(node, constants):
    """repr of the literal an expression stands for, a module constant
    passed by name counting as its value; None when it is not a literal."""
    if isinstance(node, ast.Name):
        return repr(constants[node.id]) if node.id in constants else None
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def _defaulted(constants):
    """(module, qualified name) -> (the name a call uses, the parameters a
    call fills by position, {parameter: default}) of every function of the
    package with a defaulted parameter; a class is called for __init__."""
    out = {}

    def visit(module, body, prefix, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(module, node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaults = dict(zip(positional[len(positional)
                                               - len(args.defaults):],
                                    args.defaults))
                defaults.update((a.arg, d) for a, d in
                                zip(args.kwonlyargs, args.kw_defaults) if d)
                called_as = (prefix.rstrip(".").rsplit(".", 1)[-1]
                             if node.name == "__init__" else node.name)
                if defaults:
                    out[(module, prefix + node.name)] = (
                        called_as, positional[1:] if in_class else positional,
                        {name: _value(d, constants)
                         for name, d in defaults.items()})
                visit(module, node.body, f"{prefix}{node.name}.", False)

    for module in MODULES:
        visit(module, _tree(module).body, "", False)
    return out


def _passed(call, positional, defaults, constants):
    """{parameter: value} of the arguments a call gives; a * or ** argument
    may fill any parameter with an unknown value."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
            kw.arg is None for kw in call.keywords):
        return dict.fromkeys([*positional, *defaults])
    passed = {name: _value(arg, constants)
              for name, arg in zip(positional, call.args)}
    passed.update((kw.arg, _value(kw.value, constants))
                  for kw in call.keywords)
    return passed


def _one_value_knobs():
    """(module, function, parameter) of each defaulted parameter that no
    call in the package passes, that every call passes, or that every call
    sets to one literal; an omitted argument counts as its default."""
    constants = _constants()
    functions = _defaulted(constants)
    values = {(key, name): [] for key, (_, _, defaults) in functions.items()
              for name in defaults}
    explicit, omitted = set(), set()
    for module in MODULES + ["__init__"]:
        for call in ast.walk(_tree(module)):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            for key, (called_as, positional, defaults) in functions.items():
                if callee != called_as:
                    continue
                passed = _passed(call, positional, defaults, constants)
                for name, default in defaults.items():
                    values[key, name].append(passed.get(name, default))
                    (explicit if name in passed else omitted).add((key, name))
    return sorted(key + (name,) for (key, name), seen in values.items()
                  if (key, name) not in explicit
                  or (key, name) not in omitted
                  or (None not in seen and len(set(seen)) == 1))


def test_no_parameter_is_a_one_value_knob():
    assert _one_value_knobs() == sorted(ONE_VALUE_DEFAULTS)
