"""The model extractor -- the paper's core contribution (Fig. 1, Sec. VI).

Translates CAPL application code into CSPm implementation models through an
ANTLR-style listener walk and a StringTemplate-style template group, then
composes node models into system models for refinement checking.
"""
