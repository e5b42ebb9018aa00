"""The UDS SecurityAccess case study's verdicts must be stable."""

import importlib.util
import pathlib

spec = importlib.util.spec_from_file_location(
    "uds_example",
    pathlib.Path(__file__).parents[2] / "examples/uds_security_access.py",
)
uds = importlib.util.module_from_spec(spec)
spec.loader.exec_module(uds)


class TestUdsSecurityAccess:
    def test_weak_seed_replay_found(self):
        result = uds.analyse(weak_seed=True)
        assert not result.passed
        # the violation: a second unlock after a single legitimate key
        unlocks = [
            e for e in result.counterexample.full_trace if e.channel == "unlock"
        ]
        assert len(unlocks) == 2

    def test_fresh_seeds_resist_replay(self):
        result = uds.analyse(weak_seed=False)
        assert result.passed

    def test_honest_unlock_still_works(self):
        """Security must not break the handshake for the legitimate tester."""
        from repro.csp.lts import compile_lts
        from repro.csp.process import ref

        env, key_send, _fake, unlock, _alphabet = uds.build_uds_model(False)
        lts = compile_lts(ref("UDS_HONEST"), env)
        seed = uds.SEEDS[0]
        from repro.csp.events import Event

        walk = lts.walk(
            [
                Event("seedReq", ("go",)),
                Event("seedRsp", (seed,)),
                Event("keySend", (uds.expected_key(seed),)),
                Event("unlock", (seed,)),
            ]
        )
        assert walk is not None

    def test_intruder_cannot_forge_fresh_key(self):
        from repro.csp.events import Event
        from repro.csp.lts import compile_lts
        from repro.csp.process import ref

        env, key_send, fake, unlock, _alphabet = uds.build_uds_model(False)
        lts = compile_lts(ref("UDS_ATTACKED"), env)
        # once the ECU is waiting for a key, the intruder (who has overheard
        # nothing yet) can only inject 'badkey' -- not a real key
        session_start = [Event("seedReq", ("go",)), Event("seedRsp", (uds.SEEDS[0],))]
        assert lts.walk(session_start + [Event("fakeKey", ("badkey",))]) is not None
        assert (
            lts.walk(
                session_start + [Event("fakeKey", (uds.expected_key(uds.SEEDS[0]),))]
            )
            is None
        )
