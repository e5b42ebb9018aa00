"""CSPm -- the machine-readable CSP dialect (paper Sec. IV-A2, Table I).

Provides the lexer/parser for the supported CSPm subset, the evaluator that
lowers scripts onto the core process algebra, and the emitter the model
extractor uses to write Fig.-3-style generated scripts.
"""
