"""Refinement checker for CSP -- the FDR substitute (paper Sec. IV-D).

Implements specification normalisation, trace and stable-failures refinement
with shortest counterexamples, plus the standard deadlock / divergence /
determinism assertions, over the LTSs compiled by :mod:`repro.csp`.
"""
