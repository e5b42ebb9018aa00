"""F3 -- paper Fig. 3: the automatically generated ECU implementation model.

Regenerates the CSPm script the model extractor produces from the ECU's
CAPL source -- channel type declarations from message declarations, one
recursive process per 'on message' event procedure -- and times the
extraction pipeline (lex, parse, listener walk, template generation).
"""

from repro.cspm.evaluator import load
from repro.ota.capl_sources import ECU_SOURCE
from repro.translator.extractor import ExtractorConfig, ModelExtractor

#: Fig. 3 shows unqualified process names; mirror that
CONFIG = ExtractorConfig(qualify_names=False)


def extract():
    return ModelExtractor(CONFIG).extract(ECU_SOURCE, "ECU")


def test_bench_fig3_generated_cspm(benchmark, artifact):
    result = benchmark(extract)

    # the shape the paper's figure shows: channel declarations extracted from
    # message declarations plus ONMSG processes
    assert "channel send, rec : msgs" in result.script_text
    assert "ONMSG_REQSW" in result.script_text
    assert "ONMSG_REQAPP" in result.script_text

    # and the generated script must load straight into the checker front-end
    model = load(result.script_text)
    assert "MAIN" in model.env

    artifact("fig3_generated_cspm", result.script_text)
