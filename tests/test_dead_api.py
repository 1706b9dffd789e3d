"""Guard against public API that no code path in ``src/qadc`` reaches.

A public function, class or method counts as referenced when its name appears
as a name or an attribute anywhere in ``src/qadc`` outside the package
``__init__`` re-exports.  The scan is by bare name, so a method is also
counted as referenced when another class's method of the same name is used.
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


def unreferenced_public_names(src: Path) -> set[str]:
    defined: dict[str, list[str]] = {}
    used: set[str] = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        qualified = f"{path.stem}.{node.name}.{sub.name}"
                        defined.setdefault(sub.name, []).append(qualified)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {
        qualified
        for name, places in defined.items()
        if not name.startswith("_") and name not in used
        for qualified in places
    }


def test_every_unreferenced_public_name_is_allowlisted():
    assert unreferenced_public_names(SRC) == set(KEPT_UNREFERENCED)
