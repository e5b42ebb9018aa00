"""Property-based differential testing of the verification toolchain.

The extractor+checker pipeline is only trustworthy if its redundant
computations of the same semantic facts agree everywhere -- the algebraic
laws against the trace semantics, the denotational against the operational
model, the on-the-fly against the eager refinement search, the interpreter
against the extracted model.  This package fuzzes exactly those seams:

* :mod:`~repro.quickcheck.gen` -- seeded composable generators for process
  terms, CSPm sources and CAPL handler programs;
* :mod:`~repro.quickcheck.shrink` -- a deterministic greedy shrinker that
  reduces any failing input to a locally minimal repro;
* :mod:`~repro.quickcheck.oracles` -- the registry of differential checks;
* :mod:`~repro.quickcheck.runner` / :mod:`~repro.quickcheck.cli` -- the
  budgeted ``cspfuzz`` campaign with corpus persistence;
* :mod:`~repro.quickcheck.corpus` -- replayable JSON failure files;
* :mod:`~repro.quickcheck.testing` -- the ``for_all`` property runner the
  randomized pytest files are built on (``REPRO_SEED`` replays a run).
"""
