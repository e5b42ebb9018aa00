"""X2 -- paper Sec. IV-E: attack-tree-to-CSP translation.

Verifies the semantic-equivalence claim (the tree's SP-graph action
sequences equal the completed traces of the generated process) on attack
trees of growing size, and times translation + equivalence checking.
"""

from repro.csp.events import event
from repro.csp.traces import denotational_traces
from repro.security.attack_tree import action, all_of, any_of, sequence_of


def build_tree(width):
    """An OR over *width* alternatives, each a seq/par mix of depth 2."""
    alternatives = []
    for index in range(width):
        probe = action(event("probe", index))
        spoof = action(event("spoof", index))
        inject = action(event("inject", index))
        alternatives.append(sequence_of(probe, all_of(spoof, inject)))
    return any_of(*alternatives)


def completed_traces(tree, max_length):
    traces = denotational_traces(tree.to_process(), max_length=max_length)
    return {tr[:-1] for tr in traces if tr and tr[-1].is_tick()}


def check_equivalence(width):
    tree = build_tree(width)
    sequences = tree.sequences()
    longest = max(len(s) for s in sequences)
    equal = completed_traces(tree, longest + 1) == sequences
    return width, len(sequences), equal


def sweep():
    return [check_equivalence(width) for width in (1, 2, 4, 8)]


def test_bench_attack_trees(benchmark, artifact):
    rows = benchmark(sweep)
    assert all(equal for _w, _n, equal in rows)

    lines = [
        "Attack-tree translation (paper Sec. IV-E)",
        "tree: OR over w alternatives, each  probe . (spoof || inject)",
        "",
        "{:<8} {:<12} {}".format("width", "#sequences", "tree == CSP process"),
    ]
    for width, count, equal in rows:
        lines.append("{:<8} {:<12} {}".format(width, count, "equivalent" if equal else "MISMATCH"))
    artifact("attack_trees", "\n".join(lines))
