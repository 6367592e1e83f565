"""The traced benchmark wraps functions by (module, name); each must exist.

`perfbench/layers.py` replaces these attributes from outside the package,
so renaming or inlining one of them would break `perfbench/run.py --trace 1`
without any other test noticing.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.WRAPPED


def test_wrapped_functions_resolve():
    wrapped = _wrapped()
    assert wrapped
    for module, name, _, _ in wrapped:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)
