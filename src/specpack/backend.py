"""Kernel selection: the compiled extension when it imports, else the
pure-Python twin."""

try:
    from . import _kernels as kernels
except ImportError:
    from . import _kernels_py as kernels

BACKEND = kernels.BACKEND
