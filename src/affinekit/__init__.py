"""affinekit: exact-arithmetic affine Lie algebra and weight module toolkit.

Modules
-------
exact    rational scalars, generalized binomials, exact linalg
finlie   finite-dimensional simple Lie algebras with Chevalley-style bases
affine   affine algebras (twisted and untwisted), roots, sl2 triples
rootpar  functional flags, parabolic subsets, cone certificates
modrep   weight modules on degree windows
locfun   twisted localization calculus
cli      command line front end emitting JSON/CSV reports
"""

__version__ = "0.1.0"
