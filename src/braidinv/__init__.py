"""Exact arithmetic for the inverse problem of the two-strand braid integral.

Everything computational runs over the rationals; floats appear only in
reporting, at a precision the caller picks.
"""

__version__ = "0.1.0"
