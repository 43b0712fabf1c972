"""Layout rule: every module-level function and class in ``src/rbcm`` has a
caller in ``src/rbcm`` (a name or attribute use outside its own body, or an
import), unless it is an entry point listed below.  Code that only the tests
reach belongs in ``tests/oracles.py``."""

import ast
from pathlib import Path
from typing import Optional

SRC = Path(__file__).resolve().parents[1] / "src" / "rbcm"

ENTRY_POINTS = {
    "brute.naive_enumerate_rbcm": "oracle: the definitional scan that cross-checks enumerate_rbcm",
    "maps.are_isomorphic": "one pair's isomorphism certificate: the least solved automorphism as a permutation",
    "autos.find_lift": "paper-lemma calculus: an explicit lift of a restricted automorphism",
    "autos.conjugate_normal_form": "paper-lemma calculus: conjugation of sigma(z,1;0,w)",
    "maps.normalize_indexing": "paper-lemma calculus: the normalized offset ell of a balanced map",
    "autos.simplified_compose_c_ge_b": "paper-lemma calculus: the reduced composition formulas",
    "twoadic.sqrt_lift": "2-adic square-root lifting, the lemma behind criterion 5",
    "cli.main": "the rbcm command",
}


def _definitions_and_uses() -> "tuple[list[str], dict[str, set[Optional[str]]]]":
    """Qualified module-level definitions, and for each name the definitions
    whose bodies use it (``None`` for module-level code)."""
    defined = []
    uses: "dict[str, set[Optional[str]]]" = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                owner = f"{path.stem}.{top.name}"
                defined.append(owner)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                uses.setdefault(name, set()).add(owner)
    return defined, uses


def test_every_definition_has_a_caller_in_src():
    defined, uses = _definitions_and_uses()
    unused = [
        qual
        for qual in defined
        if not uses.get(qual.split(".")[1], set()) - {qual} and qual not in ENTRY_POINTS
    ]
    assert unused == []


def test_entry_points_exist():
    defined, _ = _definitions_and_uses()
    assert set(ENTRY_POINTS) <= set(defined)


# Maps hold their generators and skew tables encoded (``x*m + y``) only; these
# are the object accessors of a second element representation.
OBJECT_ACCESSORS = {"omega", "omega_at", "pos", "rho", "apply", "pi_of"}


def _class_members(module: str, cls: str) -> "set[str]":
    """Methods and class attributes of a class, and the ``self.<name>`` it assigns."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    (node,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
    members = set()
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            members.update(t.id for t in targets if isinstance(t, ast.Name))
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            members.add(sub.attr)
    return members


def test_maps_keep_one_element_representation():
    cayley_map = _class_members("maps", "CayleyMap")
    skew = _class_members("maps", "SkewMorphism")
    assert {"omega_idx", "rotate"} <= cayley_map and {"phi", "pi"} <= skew
    assert cayley_map & OBJECT_ACCESSORS == set()
    assert skew & OBJECT_ACCESSORS == set()
