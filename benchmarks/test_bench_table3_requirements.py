"""T3 -- paper Table III: the secure-update requirements R01-R05.

Regenerates the requirement table with the formal verdict of each
requirement checked against the case-study system, and times the complete
requirement-checking run.
"""

from repro.ota.requirements import TABLE_III, check_all


def test_bench_table3_requirements(benchmark, artifact):
    results = benchmark(check_all)
    assert len(results) == 5
    assert all(result.passed for _row, result in results)

    lines = ["Table III - secure update system requirements (with verdicts)"]
    lines.append("{:<5} {:<8} {:<9} {}".format("ID", "verdict", "states", "requirement"))
    lines.append("-" * 100)
    for row, result in results:
        lines.append(
            "{:<5} {:<8} {:<9} {}".format(
                row.req_id,
                "PASSED" if result.passed else "FAILED",
                result.states_explored,
                row.text,
            )
        )
        lines.append("{:<5} {:<8} {:<9}   formal reading: {}".format("", "", "", row.formal_reading))
    artifact("table3_requirements", "\n".join(lines))
