"""Desk-scale lattice laboratory for wavefunctional evolution of scalar fields."""

__version__ = "0.1.0"
