"""Every public name has a caller in the package or a place in the README.

A name in ``seedsched.__all__`` must be read somewhere in ``src/seedsched``
(a name or attribute load, so neither its definition, an import nor an
``__all__`` entry counts), or be named in the README's "Library use"
section.  Dunder names such as ``__version__`` are exempt.  In reverse,
every call that section shows inline (`` `name(...)` ``) must name an
attribute of ``seedsched`` or a method of an exported class, so the entry
of a deleted export cannot linger, and each of its ``python`` code blocks
must run, so a removed parameter cannot linger in an example.  Within the
package, every private name (a module-level function, class or assignment,
or a method) must be loaded somewhere in it too, so a helper that lost its
last caller cannot linger.
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


def _private_definitions() -> dict[str, str]:
    """Every private, non-dunder name the package defines at module level
    or as a method, keyed by ``module:name`` or ``module:Class.method``."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                names = []
            found.update((f"{path.stem}:{name}", name) for name in names)
            if isinstance(node, ast.ClassDef):
                found.update(
                    (f"{path.stem}:{node.name}.{m.name}", m.name)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef)
                )
    return {
        label: name
        for label, name in found.items()
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    }


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


def test_every_example_in_the_readme_section_runs(capsys):
    examples = re.findall(r"^```python\n(.*?)^```", _library_use_section(), re.M | re.S)
    assert examples, "the 'Library use' section shows no python example"
    for i, code in enumerate(examples):
        exec(compile(code, f"README 'Library use' example {i}", "exec"), {})
    capsys.readouterr()


def test_every_private_name_is_loaded_in_the_package():
    defined = _private_definitions()
    assert {"experiment:_run_task", "simulator:_TrialRunner._run"} <= set(defined)
    loads = _loads_in_package()
    orphans = [label for label, name in defined.items() if not loads[name]]
    assert not orphans, f"private names nothing in the package loads: {orphans}"
