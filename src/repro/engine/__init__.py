"""The shared verification engine.

One :class:`VerificationPipeline` per model-checking session replaces the
hand-wired compile → normalise → refine sequences that used to live in every
caller.  The pipeline owns four pieces:

* an :class:`~repro.csp.events.AlphabetTable` interning events to dense int
  ids, so every automaton it builds lives in one id space and the product
  search never hashes an :class:`~repro.csp.events.Event` on the hot path;
* a :class:`CompilationCache` memoising compiled LTSs and normalised
  specifications by structural fingerprint, so checking one specification
  against many implementations compiles and normalises the shared side
  once -- optionally backed by a content-addressed on-disk
  :class:`DiskCache` shared across worker processes and sessions (see
  :mod:`repro.batch`);
* a :class:`CompilationPlan` that decomposes composed terms along their
  parallel/hiding/renaming boundaries and compresses each component with
  the configured :mod:`repro.passes` before the product is ever explored
  (compress-before-compose, paper Sec. VII-A);
* the one route into the refinement search: the normalised spec against a
  compiled implementation for ``[FD=``, and otherwise against an on-the-fly
  view (:class:`ProductLTS` over compiled components, or the term-level
  lazy expansion) that lets trace/failures checks exit on the first
  violation without materialising the implementation state space.
"""
