"""Arithmetic invariants of hyperelliptic curves over Q and explicit
small-points height bounds, evaluated in sound directed-rounding arithmetic."""

from .bounds import BoundParams, full_report
from .curve import analyze_curve

__version__ = "0.1.0"

__all__ = ["BoundParams", "analyze_curve", "full_report", "__version__"]
