"""Unit tests for symbolic crypto terms and Dolev-Yao deduction."""

import pytest

from repro.security.crypto import (
    can_forge,
    deductive_closure,
    enc,
    is_enc,
    is_key,
    is_mac,
    is_pair,
    key,
    mac,
    nonce,
    pair,
    render_term,
    subterms,
    verify_mac,
)

K = key("k")
K2 = key("k2")


class TestTermConstruction:
    def test_predicates(self):
        assert is_key(K)
        assert is_mac(mac(K, "m"))
        assert is_enc(enc(K, "m"))
        assert is_pair(pair("a", "b"))
        assert not is_key("plain")

    def test_mac_requires_key(self):
        with pytest.raises(ValueError):
            mac("notakey", "m")

    def test_enc_requires_key(self):
        with pytest.raises(ValueError):
            enc("notakey", "m")

    def test_terms_are_hashable(self):
        assert len({mac(K, "m"), mac(K, "m")}) == 1

    def test_verify_mac(self):
        token = mac(K, "payload")
        assert verify_mac(token, K, "payload")
        assert not verify_mac(token, K2, "payload")
        assert not verify_mac(token, K, "other")

    def test_subterms(self):
        term = enc(K, pair("a", mac(K2, "b")))
        parts = subterms(term)
        assert K in parts and "a" in parts and mac(K2, "b") in parts and "b" in parts

    def test_render(self):
        assert render_term(mac(K, "m")) == "mac(key(k), m)"
        assert render_term(nonce("n1")) == "nonce(n1)"
        assert render_term("plain") == "plain"


class TestDeduction:
    def test_pairs_split(self):
        closure = deductive_closure([pair("a", "b")])
        assert "a" in closure and "b" in closure

    def test_decryption_with_known_key(self):
        closure = deductive_closure([enc(K, "secret"), K])
        assert "secret" in closure

    def test_no_decryption_without_key(self):
        closure = deductive_closure([enc(K, "secret")])
        assert "secret" not in closure

    def test_nested_analysis(self):
        term = enc(K, pair("a", enc(K2, "deep")))
        closure = deductive_closure([term, K, K2])
        assert "deep" in closure

    def test_bounded_synthesis(self):
        wanted = mac(K, "m")
        closure = deductive_closure(["m", K], constructible=[wanted])
        assert wanted in closure

    def test_synthesis_needs_key(self):
        wanted = mac(K, "m")
        closure = deductive_closure(["m"], constructible=[wanted])
        assert wanted not in closure

    def test_synthesis_of_pairs(self):
        wanted = pair("a", "b")
        assert wanted in deductive_closure(["a", "b"], constructible=[wanted])

    def test_can_forge_helper(self):
        assert can_forge(mac(K, "m"), ["m", K])
        assert not can_forge(mac(K, "m"), ["m"])

    def test_mac_not_invertible(self):
        """A MAC reveals neither key nor payload (one-way)."""
        closure = deductive_closure([mac(K, "secret")])
        assert "secret" not in closure
        assert K not in closure

    def test_closure_is_idempotent(self):
        knowledge = [pair("a", enc(K, "s")), K]
        once = deductive_closure(knowledge)
        twice = deductive_closure(once)
        assert once == twice
