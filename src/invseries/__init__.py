"""Iterative schemes of arbitrary convergence order for nonlinear systems.

The update of order k is the truncation, after k-1 terms, of the Taylor
series of the local inverse of the system, expanded around the current
residual and evaluated at zero.  All derivative information is produced by
truncated Taylor (jet) arithmetic at arbitrary precision, so schemes of
any order are built numerically without symbolic algebra.
"""

__version__ = "0.1.0"
