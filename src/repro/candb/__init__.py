"""CAN databases (CANdb / .dbc) -- parsing, signal codec, CSPm export.

Paper Sec. IV-B2 (the database format) and Sec. VIII-A (the DBC-to-CSPm
model generator, implemented here as :func:`export_database`).
"""
