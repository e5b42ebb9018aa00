"""The OTA software-update case study (paper Sec. V, ITU-T X.1373).

Message set (Table II), requirements (Table III), hand-written CSP models
(SP02 and friends), runnable/translatable CAPL sources for the Fig. 2 demo
network, and the end-to-end Fig. 1 workflow runner.
"""
