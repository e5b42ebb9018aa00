"""repro -- security checking of automotive ECUs with formal CSP models.

A complete, from-scratch reproduction of

    Heneghan, Shaikh, Bryans, Cheah, Wooderson.
    "Enabling Security Checking of Automotive ECUs with Formal CSP Models."
    DSN-W 2019.

The package provides every stage of the paper's Fig. 1 toolchain:

* :mod:`repro.csp`        -- the CSP process algebra, trace semantics, LTSs
* :mod:`repro.engine`     -- the shared verification pipeline (interned
  alphabets, compilation cache, on-the-fly refinement)
* :mod:`repro.fdr`        -- the refinement checker (FDR substitute)
* :mod:`repro.cspm`       -- the machine-readable CSP dialect (parse/emit)
* :mod:`repro.capl`       -- CAPL: parser and bus-attached interpreter
* :mod:`repro.canbus`     -- the simulated CAN network (CANoe substitute)
* :mod:`repro.candb`      -- CAN databases (.dbc) and their CSPm export
* :mod:`repro.translator` -- the model extractor: CAPL -> CSPm
* :mod:`repro.security`   -- Dolev-Yao intruders, attack trees, properties
* :mod:`repro.testgen`    -- model-based test generation + conformance runs
* :mod:`repro.ota`        -- the X.1373 software-update case study
* :mod:`repro.rv`         -- offline runtime verification of CAN logs
* :mod:`repro.server`     -- the ``cspserve`` daemon (warm workers, dedup)

``import repro`` loads only the :mod:`repro.api` v1 names re-exported
below and what they need.  Below the root every name is imported from the
module that defines it (``from repro.csp.process import Prefix``) and a
subpackage ``__init__`` holds only its docstring, so a command-line tool
pays only for its own stages.

Quickstart -- the :mod:`repro.api` facade is the supported entry point::

    from repro import api
    result = api.verify_requirement("R02")      # paper Table III
    result = api.check_refinement(spec, impl, model="T", env=env)
    result = api.check_deadlock(system, env=env)

or the whole case study at once::

    from repro.ota.scenario import run_workflow
    report = run_workflow(flawed=True)   # seed the integrity defect
    print(report.summary())              # SP02 fails with the insecure trace
"""

from .api import (
    API_VERSION,
    Verdict,
    check_deadlock,
    check_determinism,
    check_divergence,
    check_property,
    check_refinement,
    check_trace,
    execute_check,
    extract_model,
    server_client,
    verify_requirement,
    verify_requirements,
    verify_traces,
)

__version__ = "1.0.0"

__all__ = [
    "API_VERSION",
    "Verdict",
    "check_deadlock",
    "check_determinism",
    "check_divergence",
    "check_property",
    "check_refinement",
    "check_trace",
    "execute_check",
    "extract_model",
    "server_client",
    "verify_requirement",
    "verify_requirements",
    "verify_traces",
    "__version__",
]
