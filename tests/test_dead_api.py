"""Guard against code that no code path in ``src/qadc`` reaches.

A module-level function, class or name counts as referenced when its name is
read as a name or used as an attribute anywhere in ``src/qadc`` outside the
package ``__init__`` re-exports.  A method or property counts as referenced
only when its name is used as an attribute: a variable of the same name does
not keep it.  A ``self.<name>`` read keeps only the member of the class whose
body holds it; other receivers are not resolved, so a method is also counted
as referenced when an attribute of the same name is used on any other
receiver.  Unreferenced public names must be allowlisted; unreferenced
private names (dunders aside) must not exist at all.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qadc"

#: Public names that no command reaches but that stay, each for a reason.
#: Test-only code lives in ``tests/``, so there are none.
KEPT_UNREFERENCED: dict[str, str] = {}


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


def unreferenced_names(src: Path) -> set[str]:
    defined: list[tuple[str, str, bool]] = []
    names: set[str] = set()
    attributes: set[str] = set()
    self_members: set[str] = set()  # qualified members read as self.<name> in their class
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += definitions(tree, path.stem)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                self_members.update(
                    f"{path.stem}.{node.name}.{sub.attr}"
                    for sub in ast.walk(node)
                    if is_self_attribute(sub)
                )
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not is_self_attribute(node):
                attributes.add(node.attr)
    return {
        qualified
        for name, qualified, member in defined
        if name not in attributes
        and qualified not in self_members
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
