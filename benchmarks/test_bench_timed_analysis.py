"""Extension bench -- tock-time analysis (paper Sec. VII-B).

The paper proposes extending model alphabets with a ``tock`` event to
analyse time-dependent ECU features.  This bench does exactly that on the
extracted VMG model: its CAPL source arms a 10 ms session timer, the timed
monitor makes the timer fire after exactly 10 tocks (1 tock = 1 ms), and a
deadline specification sweeps the allowed budget.  The expected crossover:
the check fails for every deadline below 10 tocks and passes from 10 up.
"""

from repro.csp.events import Alphabet, event
from repro.csp.lts import compile_lts
from repro.csp.process import GenParallel
from repro.csp.timed import TOCK, deadline_spec, timer_to_tock_monitor
from repro.fdr.refine import check_trace_refinement
from repro.ota.capl_sources import VMG_SOURCE
from repro.translator.extractor import ExtractorConfig, ModelExtractor
from repro.translator.rules import ChannelConvention

TIMER_TOCKS = 10  # the CAPL source: setTimer(sessionTimer, 10)


def build_timed_vmg():
    config = ExtractorConfig(
        convention=ChannelConvention("rec", "send"), timer_monitors=False
    )
    result = ModelExtractor(config).extract(VMG_SOURCE, "VMG")
    model = result.load()
    env = model.env
    monitor = timer_to_tock_monitor("sessionTimer", TIMER_TOCKS, env, name="TSESS")
    sync = Alphabet.of(
        event("setTimer", "sessionTimer"),
        event("timeout", "sessionTimer"),
        event("cancelTimer", "sessionTimer"),
    )
    timed = GenParallel(model.process("VMG"), monitor, sync)
    env.bind("TIMED_VMG", timed)
    alphabet = model.events() | sync
    return model, env, alphabet


def sweep():
    model, env, alphabet = build_timed_vmg()
    arm = event("setTimer", "sessionTimer")
    fire = event("timeout", "sessionTimer")
    impl_lts = compile_lts(env.resolve("TIMED_VMG"), env)
    rows = []
    for deadline in (6, 8, 9, 10, 12, 16):
        spec = deadline_spec(
            arm, fire, deadline, alphabet, env, "DL{}".format(deadline)
        )
        spec_lts = compile_lts(spec, env)
        result = check_trace_refinement(spec_lts, impl_lts)
        rows.append((deadline, result.passed, result.states_explored))
    return rows


def test_bench_timed_analysis(benchmark, artifact):
    rows = benchmark(sweep)
    verdicts = {deadline: passed for deadline, passed, _s in rows}
    # the crossover sits exactly at the CAPL timer's duration
    assert not verdicts[9] and verdicts[10] and verdicts[16]

    lines = [
        "Timed (tock) analysis of the extracted VMG (timer = {} tocks)".format(
            TIMER_TOCKS
        ),
        "property: the armed session timer fires within <deadline> tocks",
        "",
        "{:<12} {:<10} {}".format("deadline", "verdict", "states"),
        "-" * 34,
    ]
    for deadline, passed, states in rows:
        lines.append(
            "{:<12} {:<10} {}".format(
                deadline, "PASSED" if passed else "FAILED", states
            )
        )
    artifact("timed_analysis", "\n".join(lines))
