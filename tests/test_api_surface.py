"""Every public name has a caller in the package or a place in the README.

A name in ``seedsched.__all__`` must be read somewhere in ``src/seedsched``
(a name or attribute load, so neither its definition, an import nor an
``__all__`` entry counts), or be named in the README's "Library use"
section.  Dunder names such as ``__version__`` are exempt.  In reverse,
every call that section shows inline (`` `name(...)` ``) must name an
attribute of ``seedsched`` or a method of an exported class, so the entry
of a deleted export cannot linger.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import seedsched

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "seedsched"


def _loads_in_package() -> Counter:
    loads: Counter = Counter()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads[node.id] += 1
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads[node.attr] += 1
    return loads


def _library_use_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n(.*?)(?=^## |\Z)", readme, re.M | re.S)
    assert match, "README has no 'Library use' section"
    return match.group(1)


def test_every_public_name_has_a_caller_or_a_readme_entry():
    loads = _loads_in_package()
    section = _library_use_section()
    orphans = [
        name
        for name in seedsched.__all__
        if not (name.startswith("__") and name.endswith("__"))
        and not loads[name]
        and not re.search(rf"\b{re.escape(name)}\b", section)
    ]
    assert not orphans, f"public names with no caller and no README entry: {orphans}"



def test_every_call_in_the_readme_section_resolves():
    exported = [getattr(seedsched, name) for name in seedsched.__all__]
    classes = [obj for obj in exported if isinstance(obj, type)]
    shown = set(re.findall(r"`(\w+)\(", _library_use_section()))
    assert shown, "the 'Library use' section shows no call"
    stale = sorted(
        name
        for name in shown
        if not hasattr(seedsched, name) and not any(hasattr(cls, name) for cls in classes)
    )
    assert not stale, f"README calls with no public function or method: {stale}"
