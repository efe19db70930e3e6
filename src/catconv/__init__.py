"""Exact and high-precision verification of alternating convolution
identities for Catalan numbers and binomial coefficients.

The package pairs brute-force summation oracles with closed forms over
exact rationals (`identities`), certifies confluent hypergeometric
product formulae coefficient-by-coefficient (`hyperseries`), and checks
Gamma-quotient evaluations at arbitrary precision and double-integral
representations exactly from Beta moments (`numerics`).  `suite` bundles the acceptance
criteria; `cli` exposes everything as the ``catconv`` command.
"""

# Every module loads here, because perfbench/child.py times
# `import catconv` as start-up cost.
from . import exactnum, hyperseries, identities, numerics, report, suite

__version__ = "0.1.0"
