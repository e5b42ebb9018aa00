"""CSP process algebra core (paper Sec. IV-A).

Public surface of the process algebra: events and channels, the process-term
constructors of the paper's grammar, operational semantics, LTS compilation
and the paper's denotational trace semantics.
"""

# only the names perfbench/ imports from this package; every other caller
# imports from the defining module (docs/architecture.md, "Layering")
from .events import Alphabet, Channel, event
from .process import (
    Environment,
    ExternalChoice,
    Hiding,
    Prefix,
    ProcessRef,
    input_choice,
    interleave_all,
    ref,
)
