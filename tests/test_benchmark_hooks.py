"""The benchmark under perfbench/ imports package names and wraps package attributes by
name; each one must still be there.

The benchmark reaches some layers through re-exports that nothing in the
package calls (``llm.select_examples``), so a tidy-up could delete one and
only the benchmark would notice.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_is_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look the module up
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{module.__name__}.{attribute}"
        for module, attribute, _ in tracing.TARGETS
        if not callable(getattr(module, attribute, None))
    ]
    assert missing == []


def test_every_name_the_benchmark_imports_from_the_package_resolves():
    missing = []
    for script in sorted(TRACING.parent.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pref2constraint"):
                module = importlib.import_module(node.module)
                missing += [
                    f"{script.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if not hasattr(module, alias.name)
                ]
    assert missing == []
