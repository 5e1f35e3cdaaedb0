"""Modular-symbol statistics for rational elliptic curves of squarefree
conductor: exact path decompositions, a certified period table, scan
statistics with their closed-form limits, and a CLI tying it together.
"""

__version__ = "0.1.0"
