"""No code in src/hgtrace that only its own tests reach.

Every module-level def and class in src/hgtrace must be referred to, by a Name
or an Attribute node, somewhere in src/hgtrace/*.py or perfbench/*.py, or be a
click command, or be one of the REFERENCES below. perfbench also reaches code
through strings: its operations and traced layers are (module, "name") pairs
resolved with getattr, so there a string constant that is a name, or a dotted
"Class.method", counts too. A reference is matched by name only, so a def that
shares its name with a used variable or attribute passes; the check finds dead
code, it does not prove code live.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hgtrace"
PERFBENCH = ROOT / "perfbench"

# Kept in src with no caller there, each as the independent route a test checks
# production code against:
REFERENCES = (
    # test_character_sums.py::test_al_square_mask_matches_decompose: the scalar
    # reference for trace_engine._al_square_mask
    "al_square_decompose",
    # test_modform_oracle.py::test_cm_form_values_match_fixture: the source of
    # the 24.5.h.b fixture
    "cm_level24_weight5_ap",
)


def _parse(directory: Path) -> list[ast.Module]:
    return [ast.parse(path.read_text(), filename=str(path))
            for path in sorted(directory.glob("*.py"))]


def _is_click_command(decorator: ast.expr) -> bool:
    """@x.command(...) or @x.group(...)."""
    return (isinstance(decorator, ast.Call) and isinstance(decorator.func, ast.Attribute)
            and decorator.func.attr in ("command", "group"))


def module_definitions(trees) -> dict[str, ast.stmt]:
    return {node.name: node for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def unreached_definitions(src: Path = SRC, perfbench: Path = PERFBENCH) -> list[str]:
    """The module-level defs and classes of src/*.py that meet none of the
    three conditions, sorted."""
    src_trees, bench_trees = _parse(src), _parse(perfbench)
    used = set()
    for tree in src_trees + bench_trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for tree in bench_trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    used.update(parts)
    return sorted(name for name, node in module_definitions(src_trees).items()
                  if name not in used and name not in REFERENCES
                  and not any(map(_is_click_command, node.decorator_list)))


def test_every_src_definition_is_reached():
    assert unreached_definitions() == []
    assert set(REFERENCES) <= set(module_definitions(_parse(SRC))), "stale REFERENCES entry"
