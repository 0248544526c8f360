"""The kernel module in use, and its name in ``BACKEND``."""

from . import _kernels_py as kernels

BACKEND = kernels.BACKEND
