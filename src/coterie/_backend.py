"""The kernel module the package calls, bound under a fixed name.

Library code calls `kernels.<fn>` through this binding so that a tracer can
patch the functions in one place; `BACKEND` names the implementation.
"""

from . import _kernels_py as kernels

BACKEND = "pure"
