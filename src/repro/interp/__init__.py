"""Interpreters for compiled (fully expanded) programs.

Stands in for the paper's bytecode backend: every expansion the macro
library or MultiJava produces can be *run*, and the interpreter's
operation counters (allocations, method calls, field reads) let the
benchmarks measure what the paper's optimized expansions save.

Two execution backends share one observable semantics: the Python
code generator with profile-guided specialization — call sites that
patch once into guarded direct calls, native operators, per-site type
test caches — (``backend="pycode"``, the
default, in ``repro.interp.pycodegen``) and
the seed tree-walker (``backend="walk"``), which is the reference
semantics the differential tests compare against.  A method the code
generator declines runs on the walker.
"""

from repro.interp.values import JavaArray, JavaNull, JavaObject, JavaThrow, java_str
from repro.interp.interp import (
    Counters,
    Interpreter,
    JavaStackOverflow,
    StepLimitExceeded,
)

__all__ = [
    "Counters",
    "Interpreter",
    "JavaArray",
    "JavaNull",
    "JavaObject",
    "JavaStackOverflow",
    "JavaThrow",
    "StepLimitExceeded",
    "java_str",
]
