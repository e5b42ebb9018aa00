"""Attack and security-property models (paper Sec. IV-E).

Dolev-Yao intruder process generation, attack-tree-to-CSP translation with
the paper's SP-graph semantics, symbolic shared-key crypto, and reusable
specification templates for integrity, confidentiality, authentication and
flood-resistance properties.
"""
