"""Active automata learning of black-box ECUs (``repro.learn``).

The paper's pipeline assumes CAPL source reaches the extractor; real ECUs
are routinely black boxes.  Following Marksteiner et al., "Learn, Check,
Test" (PAPERS.md), this package closes the gap with Angluin-style L*
learning: membership queries are resettable runs of the CAPL interpreter
on the simulated CAN bus (:mod:`repro.learn.sul`), the observation table
with Rivest-Schapire counterexample processing lives in
:mod:`repro.learn.table` / :mod:`repro.learn.learner`, and equivalence
queries are answered either by the refinement engine against a reference
automaton or by bounded conformance testing
(:mod:`repro.learn.teacher`).  The learned model freezes into a
:class:`~repro.csp.kernel.CompactLTS` and, via
:func:`~repro.learn.specs.equivalence_specs`, into ordinary refinement
``CheckSpec`` documents -- learned models verify, batch, serve and
memoise exactly like extracted ones.

Surfaces: the ``csplearn`` CLI (:mod:`repro.learn.cli`), the
``learn_model`` v1 API entry (:mod:`repro.api`), and the
``learned_vs_extracted`` differential oracle (:mod:`repro.quickcheck`).
"""

# only the names perfbench/ imports from this package; every other caller
# imports from the defining module (docs/architecture.md, "Layering")
from .learner import learn
from .sul import CaplSimulatorSUL, derive_message_specs
from .teacher import ReferenceTeacher
