"""Monomial crystals, Demazure subsets, lattice paths, and generalized
minors on reduced double Bruhat cells, computed in exact arithmetic."""

from .laurent import LaurentPoly, Monomial, VarId

__all__ = ["VarId", "Monomial", "LaurentPoly"]
__version__ = "0.1.0"
