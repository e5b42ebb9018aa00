"""Semantic LTS passes: FDR-style compressions with provenance.

The pass framework behind compress-before-compose (paper Sec. VII-A).  See
:mod:`repro.passes.base` for the :class:`LtsPass` protocol,
:class:`StateProvenance` and :class:`PassStats`;
:mod:`repro.passes.sbisim` for strong bisimulation minimisation; and
:mod:`repro.passes.reduce` / :mod:`repro.passes.normal` for the structural
and normalisation passes.  :data:`repro.engine.plan.PASSES` names every
built-in pass for ``--compress``.
"""
