"""Every callable the benchmark traces exists in the package.

perfbench/spec.json names, per layer, the callables whose calls and self
time make up that layer's metric.  A name that no longer resolves records
no calls, which only a traced benchmark run would show; this test shows it
at once.
"""
import importlib
import inspect
import json
from pathlib import Path

from cocycle_lab import cli

SPEC = Path(__file__).resolve().parent.parent / "perfbench" / "spec.json"


def _resolves(name: str) -> bool:
    """name is cli.runner.<command> of a registered command, or module.function or
    module.Class.method of a public function or plain method of the package."""
    if name.startswith("cli.runner."):
        return name[len("cli.runner."):] in cli._RUNNERS
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"cocycle_lab.{module}")
    for attr in attrs:
        obj = vars(obj).get(attr) if inspect.isclass(obj) else getattr(obj, attr, None)
    return inspect.isfunction(obj)


def test_every_traced_name_resolves():
    layers = json.loads(SPEC.read_text())["layers"]
    names = {name for layer in layers.values() for name in layer["from"]}
    assert "dilation.BrownianScenario.increments" in names and "cli.runner.alpha" in names
    assert [name for name in sorted(names) if not _resolves(name)] == []
