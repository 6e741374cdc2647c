"""Workbench for graded twisted tensor products of polynomial rings.

Exact-arithmetic construction, classification, Koszulity and regularity
decisions for twisted tensor products of k[x] with k[z] and of k[x,y]
with k[z], plus the rewriting and homological machinery behind them.

Every verdict, witness and parameter tuple is an immutable
typing.NamedTuple record, so importing the package loads neither
dataclasses nor inspect.
"""

__version__ = "0.1.0"
