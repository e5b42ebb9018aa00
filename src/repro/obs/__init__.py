"""repro.obs -- zero-dependency observability for the verification stack.

The paper's workflow (Fig. 1) feeds counterexample traces back to
designers; this subsystem feeds the *cost* of producing them back to the
toolchain: which pipeline stage (parse / plan / compress / normalise /
refine) a check spends its time in, how many states and transitions each
stage touched, and where the caches helped.

Three layers:

* :class:`Tracer` / :class:`Span` -- nested regions on a monotonic clock,
  plus a per-tracer :class:`Metrics` registry of counters, gauges and
  histograms.  The disabled flavour, :data:`NULL_TRACER`, is a shared
  singleton whose operations are no-ops over pre-allocated objects, so the
  instrumented hot path pays one attribute lookup when observability is
  off.
* JSONL export/import (:func:`export_jsonl` / :func:`load_jsonl`) with a
  complete schema validator (:mod:`repro.obs.schema`), so traces survive as
  CI artifacts and round-trip for offline analysis.
* :class:`Profile` (:mod:`repro.obs.profile`) -- per-stage wall-time
  breakdowns aggregated from a span tree by exclusive time, so stage sums
  always reconcile with end-to-end wall time.  Surfaced as
  ``CheckResult.profile`` and ``cspcheck --profile``.
"""

# only the names perfbench/ imports from this package; every other caller
# imports from the defining module (docs/architecture.md, "Layering")
from .schema import SchemaError, validate_file
from .trace import NULL_TRACER, Tracer, export_jsonl
