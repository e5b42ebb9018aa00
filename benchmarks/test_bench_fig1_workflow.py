"""F1 -- paper Fig. 1: the end-to-end workflow and toolchain.

Times the complete pipeline -- CANoe-substitute simulation, model
extraction, composition, refinement check, trace validation -- and writes
the workflow report for both the faithful and the seeded-flaw ECU.
"""

from repro.ota.scenario import run_workflow


def both_runs():
    return run_workflow(flawed=False), run_workflow(flawed=True)


def test_bench_fig1_workflow(benchmark, artifact):
    good, bad = benchmark(both_runs)
    assert good.all_passed and good.simulation_trace_admitted
    assert not bad.all_passed

    lines = ["Fig. 1 workflow - faithful ECU", "=" * 60]
    lines.append(good.summary())
    lines.append("")
    lines.append("Fig. 1 workflow - ECU with seeded integrity flaw")
    lines.append("=" * 60)
    lines.append(bad.summary())
    lines.append("")
    lines.append("counterexample fed back to designers:")
    for result in bad.check_results:
        if not result.passed:
            lines.append("  " + result.counterexample.describe())
    artifact("fig1_workflow", "\n".join(lines))
