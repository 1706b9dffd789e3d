"""Guard against code that no code path in ``src/qadc`` reaches.

A function, class, method or module-level name counts as referenced
when its name is read as a name or used as an attribute anywhere in
``src/qadc`` outside the package ``__init__`` re-exports.  The scan is by bare
name, so a method is also counted as referenced when another class's method
of the same name is used.  Unreferenced public names must be allowlisted;
unreferenced private names (dunders aside) must not exist at all.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qadc"

#: Public names that no command reaches but that stay, each for a reason.
KEPT_UNREFERENCED = {
    "linop.physical_rail_pairs": "physics oracle: GHZ fidelity in the physical rail frame",
    "photonics.MultimodeState.norm_squared": "physics oracle: norm of the explicit oracle state",
    "analysis.wrap_difference": "test reference of ml.circular_errors",
    "linop.moduli_fidelity": "programming-quality measure reported by acceptance criterion 3",
    "photonics.sample_survivors": "Monte Carlo cross-check of photonics.class_probabilities",
}


def definitions(tree: ast.Module, stem: str):
    """(bare, qualified) names of the module's functions, classes, methods and module-level names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, f"{stem}.{node.name}"
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield sub.name, f"{stem}.{node.name}.{sub.name}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, f"{stem}.{target.id}"


def unreferenced_names(src: Path) -> set[str]:
    defined: dict[str, list[str]] = {}
    used: set[str] = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, qualified in definitions(tree, path.stem):
            defined.setdefault(name, []).append(qualified)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {
        qualified
        for name, places in defined.items()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
        for qualified in places
    }


def is_private(qualified: str) -> bool:
    return qualified.rsplit(".", 1)[-1].startswith("_")


def test_every_unreferenced_public_name_is_allowlisted():
    public = {name for name in unreferenced_names(SRC) if not is_private(name)}
    assert public == set(KEPT_UNREFERENCED)


def test_every_private_name_is_referenced():
    assert {name for name in unreferenced_names(SRC) if is_private(name)} == set()
