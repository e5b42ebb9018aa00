"""Model-based test generation and conformance execution.

The complement of refinement checking in the paper's 'systematic security
testing' programme: derive transition-covering test suites from CSP
specification models and execute them against CAPL implementations on the
simulated bus.
"""
