"""Exact enumeration of length-3 pattern-avoiding ascent sequences and
asymptotic analysis of the resulting coefficient series."""
