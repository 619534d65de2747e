import ast
from pathlib import Path

import mlq


def test_every_exported_name_resolves():
    missing = [name for name in mlq.__all__ if not hasattr(mlq, name)]
    assert missing == []
    assert len(set(mlq.__all__)) == len(mlq.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from mlq import *", namespace)
    assert set(mlq.__all__) <= set(namespace)



#: public names kept without a caller in src/: closed-form oracles and entry points
NO_SRC_CALLER = {
    "sphere_frame",
    "torus_frame",
    "equivariant_profile",
    "quat_matrix",
    "projective_distance",
    "build_surface",
    "geometry_report",
}


def _is_constant(name: str) -> bool:
    return name.lstrip("_").isupper()


def test_no_test_only_code():
    # every public module-level function or class of src/mlq is read somewhere
    # in src/: a Name load or a from-import; attributes, keywords and the
    # package's re-exports do not count.  Private module-level functions,
    # private methods and UPPER_CASE module constants must be read in src/
    # too, where an attribute read (self._helper, module.CONSTANT) counts.
    src = Path(mlq.__file__).parent
    defined, read_in_src, used, attrs = set(), set(), set(), set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                (read_in_src if node.name.startswith("_") else defined).add(node.name)
            if isinstance(node, ast.ClassDef):
                read_in_src.update(
                    item.name for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name.startswith("_")
                    and not item.name.endswith("__")
                )
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            read_in_src.update(t.id for t in targets if isinstance(t, ast.Name) and _is_constant(t.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    assert sorted(defined - used - NO_SRC_CALLER) == []
    assert sorted(read_in_src - used - attrs) == []
