"""Total and paired domination numbers of toroidal meshes.

Compute, construct and certify minimum dominating, total dominating and
paired dominating sets of the product of two cycles: closed forms for
narrow grids, explicit pattern constructions with validation, exact
solvers with certificates, and a small CLI on top.  Import what you
need from the submodules (`torusdom.solve`, `torusdom.construct`, ...).
"""

__version__ = "0.1.0"
