"""Arithmetic invariants of hyperelliptic curves over Q and explicit
small-points height bounds, evaluated in sound directed-rounding arithmetic.

The package attributes BoundParams and full_report (from `bounds`) and
analyze_curve (from `curve`) are resolved on first access (PEP 562), so
importing the package loads no submodule, and a `bound` call through
`smallpoints.cli` never loads `curve` or the modules under it.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["BoundParams", "analyze_curve", "full_report", "__version__"]

# attribute -> the submodule that defines it
_LAZY = {"BoundParams": "bounds", "full_report": "bounds", "analyze_curve": "curve"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
