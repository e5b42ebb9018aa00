"""T2 -- paper Table II: X.1373 message types of the case study.

Regenerates the message-type table and times the translation of the
case-study CAPL message declarations into CSPm channel/datatype
declarations -- the declaration-extraction half of the Sec. VI result.
"""

from repro.ota.capl_sources import ECU_SOURCE, VMG_SOURCE
from repro.ota.messages import TABLE_II, render_table_ii
from repro.translator.extractor import ExtractorConfig, ModelExtractor
from repro.translator.rules import ChannelConvention


def translate_declarations():
    """Extract both nodes; the generated scripts carry the Table II universe."""
    vmg = ModelExtractor(
        ExtractorConfig(convention=ChannelConvention("rec", "send"))
    ).extract(VMG_SOURCE, "VMG")
    ecu = ModelExtractor().extract(ECU_SOURCE, "ECU")
    return vmg, ecu


def test_bench_table2_message_types(benchmark, artifact):
    vmg, ecu = benchmark(translate_declarations)
    universe = set(vmg.messages) | set(ecu.messages)
    table_ids = {row.message_id for row in TABLE_II}
    assert table_ids <= universe

    lines = [render_table_ii(), ""]
    lines.append("extracted message universe (VMG ∪ ECU): {}".format(sorted(universe)))
    lines.append("generated declarations (ECU):")
    for line in ecu.script_text.splitlines():
        if line.startswith(("datatype", "channel")):
            lines.append("  " + line)
    artifact("table2_message_types", "\n".join(lines))
