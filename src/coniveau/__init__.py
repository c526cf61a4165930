"""Exact mod-p certificates for coniveau and stable-rationality obstructions.

The package computes Milnor operations on presented mod-p cohomology rings
of classifying-space approximations and on the motivic rings of real
quadrics, and verifies the nonvanishing / obstruction conditions behind
non-stable-rationality and non-retract-rationality certificates.
"""

from ._kernels import backend_name

__version__ = "0.1.0"
