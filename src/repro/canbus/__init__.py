"""Simulated CAN bus network -- the CANoe substitute (paper Sec. IV-B).

A discrete-event simulation of a CAN segment: frames with identifier-based
arbitration, broadcast delivery, CAPL-style one-shot timers and a trace log
that converts to CSP traces for validating extracted models.
"""
