"""Online bilevel problem streams and their oracle contracts."""

from .base import DriftSpec, ProblemInstant, Stream
from .meta import meta_toy_stream
from .quadratic import quadratic_instant, quadratic_stream
from .spline import (
    SplineTask,
    linear_spline_basis,
    make_drifting_spline_task,
    roughness_penalty,
    spline_stream,
)

__all__ = [
    "DriftSpec",
    "ProblemInstant",
    "Stream",
    "meta_toy_stream",
    "quadratic_instant",
    "quadratic_stream",
    "SplineTask",
    "linear_spline_basis",
    "make_drifting_spline_task",
    "roughness_penalty",
    "spline_stream",
]
