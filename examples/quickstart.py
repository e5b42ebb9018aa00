#!/usr/bin/env python3
"""Quickstart: security-check an ECU straight from its CAPL source.

The 60-second version of the paper's workflow (Fig. 1):

1. take ECU application code written in CAPL,
2. extract a CSPm implementation model from it,
3. state a security property as a CSP specification process,
4. refinement-check the property against the model,
5. read the counterexample trace when the property fails.

Run:  python examples/quickstart.py
"""

from repro import api
from repro.security.properties import request_response
from repro.translator.extractor import ModelExtractor

# ECU application code, as a developer would write it in the CANoe IDE:
# answer a software-inventory request (reqSw) with the inventory (rptSw).
ECU_CAPL = """
variables
{
  message rptSw msgRptSw;     // software inventory report
}

on message reqSw
{
  msgRptSw.byte(0) = 7;       // installed software version
  output(msgRptSw);
}
"""

# the same ECU with a subtle defect: a corrupted state makes it answer
# with an update report instead
ECU_CAPL_FLAWED = """
variables
{
  message rptSw msgRptSw;
  message rptUpd msgRptUpd;
  int corrupted = 1;
}

on message reqSw
{
  if (corrupted == 0) {
    output(msgRptSw);
  } else {
    output(msgRptUpd);
  }
}
"""


def check(capl_source: str, label: str) -> None:
    # step 1+2: model extraction (CAPL -> CSPm -> core process algebra)
    extractor = ModelExtractor()
    extracted = extractor.extract(capl_source, node_name="ECU")
    print("--- generated CSPm model ({}) ---".format(label))
    print(extracted.script_text)

    model = extracted.load()

    # step 3: the paper's SP02 integrity property -- every inventory
    # request is answered by an inventory report
    send = model.channels["send"]
    rec = model.channels["rec"]
    sp02 = request_response(send("reqSw"), rec("rptSw"), model.env, "SP02")

    # step 4: refinement check (the FDR stage)
    result = api.check_refinement(
        sp02, model.process("ECU"), "T",
        env=model.env, name="SP02 [T= {}".format(label),
    )

    # step 5: verdict and counterexample
    print(result.summary())
    print()


def main() -> None:
    check(ECU_CAPL, "ECU")
    check(ECU_CAPL_FLAWED, "ECU_FLAWED")


if __name__ == "__main__":
    main()
