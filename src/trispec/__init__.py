"""Dirichlet spectra of triangles: exact lattice spectra, FEM, verification."""

# cli is left to load on demand, so that `python -m trispec.cli` runs it once.
from . import certify, equilateral, fem, geometry, isosceles, reports, transplant

__all__ = [
    "certify",
    "cli",
    "equilateral",
    "fem",
    "geometry",
    "isosceles",
    "reports",
    "transplant",
]

__version__ = "0.1.0"
