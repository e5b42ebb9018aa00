"""X3 -- Dolev-Yao intruder composition (paper Sec. IV-E / R05).

The update-distribution model under three protection levels, each composed
with the worst-case intruder:

* none      -> the injection attack is found (counterexample trace),
* mac       -> injection blocked, but the replay attack breaks injective
               agreement,
* mac_nonce -> both properties hold.

Who wins and where the attacks fall is the reproduction target; the
benchmark times the full three-row analysis.
"""

from repro.engine.pipeline import VerificationPipeline
from repro.ota import build_secured_system, injective_agreement_check
from repro.security.properties import never_occurs


def analyse(protection):
    secured = build_secured_system(protection)
    integrity_spec = never_occurs(
        secured.forbidden_applies, secured.alphabet, secured.env
    )
    integrity = VerificationPipeline(secured.env).refinement(
        integrity_spec,
        secured.attacked_system,
        "T",
        "no unauthorised apply [{}]".format(protection),
    )
    agreement = injective_agreement_check(build_secured_system(protection))
    return protection, integrity, agreement


def sweep():
    return [analyse(protection) for protection in ("none", "mac", "mac_nonce")]


def test_bench_intruder(benchmark, artifact):
    rows = benchmark(sweep)
    verdicts = {p: (i.passed, a.passed) for p, i, a in rows}
    assert verdicts["none"][0] is False          # injection attack found
    assert verdicts["mac"] == (True, False)      # forgery blocked, replay not
    assert verdicts["mac_nonce"] == (True, True) # fully secured

    lines = [
        "Dolev-Yao intruder analysis of the update flow (requirement R05)",
        "",
        "{:<12} {:<22} {:<22}".format("protection", "integrity (no upd2)", "injective agreement"),
        "-" * 58,
    ]
    for protection, integrity, agreement in rows:
        lines.append(
            "{:<12} {:<22} {:<22}".format(
                protection,
                "PASSED" if integrity.passed else "ATTACK FOUND",
                "PASSED" if agreement.passed else "REPLAY FOUND",
            )
        )
    lines.append("")
    for protection, integrity, agreement in rows:
        for result in (integrity, agreement):
            if not result.passed:
                lines.append("[{}] {}".format(protection, result.counterexample.describe()))
    artifact("intruder_analysis", "\n".join(lines))
