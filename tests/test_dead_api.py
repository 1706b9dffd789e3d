"""Guard against code that no code path in ``src/qadc`` reaches.

A module-level function, class or name counts as referenced when its name is
read as a name or used as an attribute anywhere in ``src/qadc`` outside the
package ``__init__`` re-exports.  A method or property counts as referenced
only when its name is used as an attribute: a variable of the same name does
not keep it.  Four receivers are resolved:

- a ``self.<name>`` read keeps only the member of the class whose body holds
  it;
- a read on a function parameter annotated with a class of ``src/qadc``, in
  the function's body or in a nested function or lambda that does not take a
  parameter of that name, keeps only that class's member.  A parameter that
  is assigned anywhere in its function is not resolved;
- a read on a class of ``src/qadc`` named directly, ``Class.<name>`` or
  ``module.Class.<name>`` (such as ``ml.Network.from_json_dict``), keeps only
  that class's member;
- a read on a local variable, in its function's body or in a nested function
  or lambda that does not take a parameter of that name, keeps only the
  member of class ``C`` when every binding of the variable is an assignment
  from a call that gives a ``C``: the constructor of ``C``, or a function or
  method of ``src/qadc`` whose return annotation is ``C``, or is a
  ``tuple[...]`` with ``C`` at the variable's position of an unpacking (so
  ``net`` in ``cli.cmd_train`` is an ``ml.Network``).  A variable that is a
  parameter, bound in a nested function, or bound in any other way (a loop,
  ``with``, ``except``, an import) is not resolved, and neither is an
  attribute chain such as ``net.spec.widths``.

Other receivers are not resolved, so a method is also counted as referenced
when an attribute of the same name is used on any of them.  Unreferenced
public names must be allowlisted; unreferenced private names (dunders aside)
must not exist at all.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qadc"

#: Public names that no command reaches but that stay, each for a reason.
#: Test-only code lives in ``tests/``.
KEPT_UNREFERENCED: dict[str, str] = {
    "protocol.DEVICE_NOISE": "the device_noise preset of NOISE_PRESETS as a NoiseConfig, "
    "beside NOISELESS; the commands apply the preset as config overrides",
}


def definitions(tree: ast.Module, stem: str):
    """(bare name, qualified name, is a member) of the module's functions,
    classes, methods and module-level names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, f"{stem}.{node.name}", False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield sub.name, f"{stem}.{node.name}.{sub.name}", True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, f"{stem}.{target.id}", False


def is_self_attribute(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def parameters(scope) -> list[ast.arg]:
    a = scope.args
    return [x for x in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if x]


def reads_on(node: ast.AST, name: str):
    """Attribute reads on the bare ``name`` below ``node``, skipping nested
    functions and lambdas that take a parameter ``name``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, SCOPES) and name in {a.arg for a in parameters(child)}:
            continue
        if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
            if child.value.id == name:
                yield child
        yield from reads_on(child, name)


def typed_reads(tree: ast.Module, classes: dict[str, str]):
    """(attribute node, qualified member) of each read on a class-annotated parameter."""
    for scope in ast.walk(tree):
        if not isinstance(scope, SCOPES):
            continue
        for arg in parameters(scope):
            cls = arg.annotation.id if isinstance(arg.annotation, ast.Name) else None
            rebound = any(
                isinstance(n, ast.Name) and n.id == arg.arg and not isinstance(n.ctx, ast.Load)
                for n in ast.walk(scope)
            )
            if cls in classes and not rebound:
                for read in reads_on(scope, arg.arg):
                    yield read, f"{classes[cls]}.{cls}.{read.attr}"


def class_reads(tree: ast.Module, classes: dict[str, str]):
    """(attribute node, qualified member) of each ``Class.<name>`` and
    ``module.Class.<name>`` read."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        receiver = node.value
        if isinstance(receiver, ast.Name) and receiver.id in classes:
            yield node, f"{classes[receiver.id]}.{receiver.id}.{node.attr}"
        elif (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and classes.get(receiver.attr) == receiver.value.id
        ):
            yield node, f"{receiver.value.id}.{receiver.attr}.{node.attr}"


def annotated_class(annotation, classes: dict[str, str]) -> str | None:
    """The class of ``src/qadc`` that an annotation ``C`` or ``"C"`` names, or None."""
    if isinstance(annotation, ast.Name):
        name = annotation.id
    elif isinstance(annotation, ast.Constant):
        name = annotation.value
    else:
        return None
    return name if name in classes else None


def class_named(qualified: str | None, classes: dict[str, str]) -> str | None:
    """``Class`` when ``qualified`` is ``module.Class`` of a class of ``src/qadc``, else None."""
    module, _, name = (qualified or "").partition(".")
    return name if classes.get(name) == module else None


def callee(func: ast.expr, stem: str, modules, classes: dict[str, str]) -> str | None:
    """Qualified name of the class, function or method of ``src/qadc`` that ``func`` names.

    ``func`` is a name of the module ``stem`` or of a class, ``module.name``,
    or a method of one of those classes.
    """
    if isinstance(func, ast.Name):
        return f"{classes[func.id]}.{func.id}" if func.id in classes else f"{stem}.{func.id}"
    if not isinstance(func, ast.Attribute):
        return None
    if isinstance(func.value, ast.Name) and func.value.id in modules:
        return f"{func.value.id}.{func.attr}"
    owner = callee(func.value, stem, modules, classes)
    return f"{owner}.{func.attr}" if class_named(owner, classes) else None


def assigned_classes(assign: ast.Assign, stem: str, modules, classes, returns):
    """(Name target, class) of each name of known class that ``x = f(...)``
    or ``x, y = f(...)`` binds."""
    if len(assign.targets) != 1 or not isinstance(assign.value, ast.Call):
        return
    (target,) = assign.targets
    made = callee(assign.value.func, stem, modules, classes)
    cls = class_named(made, classes)
    given = ast.Constant(cls) if cls else returns.get(made)
    if isinstance(target, ast.Name):
        pairs = [(target, given)]
    elif (
        isinstance(target, ast.Tuple)
        and isinstance(given, ast.Subscript)
        and isinstance(given.value, ast.Name)
        and given.value.id == "tuple"
        and isinstance(given.slice, ast.Tuple)
        and len(given.slice.elts) == len(target.elts)
    ):
        pairs = zip(target.elts, given.slice.elts)
    else:
        pairs = []
    for node, annotation in pairs:
        cls = annotated_class(annotation, classes)
        if isinstance(node, ast.Name) and cls:
            yield node, cls


def own_nodes(scope):
    """The nodes of ``scope`` outside its nested functions and lambdas."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, SCOPES):
            yield from own_nodes(child)


def bound_otherwise(scope) -> set[str]:
    """Names that ``scope`` binds other than as an assignment or loop target:
    by import, ``except ... as``, ``def``, ``class``, ``global`` or ``nonlocal``."""
    names = set()
    for node in ast.walk(scope):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            names.update(node.names)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def local_reads(tree: ast.Module, stem: str, modules, classes: dict[str, str], returns):
    """(attribute node, qualified member) of each read on a local variable of known class."""
    for scope in ast.walk(tree):
        if not isinstance(scope, SCOPES):
            continue
        known = {}
        for node in own_nodes(scope):
            if isinstance(node, ast.Assign):
                known.update(assigned_classes(node, stem, modules, classes, returns))
        stores: dict[str, list] = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                stores.setdefault(node.id, []).append(node)
        skip = bound_otherwise(scope) | {a.arg for a in parameters(scope)}
        for name, nodes in stores.items():
            found = {known.get(node) for node in nodes}
            if name in skip or len(found) != 1 or None in found:
                continue
            (cls,) = found
            for read in reads_on(scope, name):
                yield read, f"{classes[cls]}.{cls}.{read.attr}"


def unreferenced_names(src: Path) -> set[str]:
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py"
    }
    classes = {
        node.name: stem
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    returns = {}  # qualified function or method: its return annotation
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                returns[f"{stem}.{node.name}"] = node.returns
            elif isinstance(node, ast.ClassDef):
                returns.update(
                    (f"{stem}.{node.name}.{sub.name}", sub.returns)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                )
    defined: list[tuple[str, str, bool]] = []
    names: set[str] = set()
    attributes: set[str] = set()
    resolved: set[str] = set()  # qualified members read on a receiver of known class
    for stem, tree in trees.items():
        defined += definitions(tree, stem)
        receivers = dict(typed_reads(tree, classes))
        receivers.update(class_reads(tree, classes))
        receivers.update(local_reads(tree, stem, trees, classes, returns))
        resolved.update(receivers.values())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                resolved.update(
                    f"{stem}.{node.name}.{sub.attr}"
                    for sub in ast.walk(node)
                    if is_self_attribute(sub)
                )
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not is_self_attribute(node):
                if node not in receivers:
                    attributes.add(node.attr)
    return {
        qualified
        for name, qualified, member in defined
        if name not in attributes
        and qualified not in resolved
        and (member or name not in names)
        and not (name.startswith("__") and name.endswith("__"))
    }


def is_private(qualified: str) -> bool:
    return qualified.rsplit(".", 1)[-1].startswith("_")


def test_every_unreferenced_public_name_is_allowlisted():
    public = {name for name in unreferenced_names(SRC) if not is_private(name)}
    assert public == set(KEPT_UNREFERENCED)


def test_every_private_name_is_referenced():
    assert {name for name in unreferenced_names(SRC) if is_private(name)} == set()
