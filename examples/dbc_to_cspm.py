#!/usr/bin/env python3
"""CAN database to CSPm extraction (paper Sec. VIII-A future work).

Parses the shipped OTA network database (.dbc), shows the message
inventory, encodes/decodes a frame through the signal codec, and generates
the CSPm datatype / nametype / channel declarations -- the 'second parser
and model generator' the paper calls for.

Run:  python examples/dbc_to_cspm.py
"""

import pathlib

from repro.candb.codec import decode_message, encode_message
from repro.candb.cspm_export import export_database, message_inventory
from repro.candb.parser import parse_dbc_file
from repro.cspm.evaluator import load

DBC_PATH = pathlib.Path(__file__).parents[1] / "src/repro/ota/data/ota_update.dbc"


def main() -> None:
    database = parse_dbc_file(str(DBC_PATH))

    print("--- message inventory ({}) ---".format(DBC_PATH.name))
    print(message_inventory(database))
    print()

    print("--- signal codec round trip ---")
    req_app = database.message_by_name("reqApp")
    payload = encode_message(
        req_app, {"ModuleId": 3, "PackageCrc": 0xBEEF, "ApplyMode": "scheduled"}
    )
    print("reqApp encoded: {}".format(" ".join("{:02X}".format(b) for b in payload)))
    print("decoded back:   {}".format(decode_message(req_app, payload)))
    print()

    print("--- generated CSPm declarations ---")
    declarations = export_database(database)
    print(declarations)

    # prove the generated declarations are valid CSPm by loading them
    model = load(declarations)
    print(
        "loaded OK: {} datatypes, {} nametypes, {} channels".format(
            len(model.datatypes), len(model.nametypes), len(model.channels)
        )
    )


if __name__ == "__main__":
    main()
