"""Lattice invariants of the birational involution of the Hilbert scheme of
n points on a very general polarized K3 surface of degree 8n-6.

Modules: :mod:`k3invol.pell` (exact Pell solvers), :mod:`k3invol.mukai`
(Mukai lattice and class searches), :mod:`k3invol.kernel` (the wall-scan
kernel), :mod:`k3invol.hilbcone` (movable-cone walls and chamber counts),
:mod:`k3invol.sigma` (invariants of the auxiliary moduli space),
:mod:`k3invol.lattice` (the isometry alpha of the period lattice),
:mod:`k3invol.cli` (command line).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
