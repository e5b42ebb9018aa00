"""Run one command-line tool and record where its process time went.

Usage::

    python3 timed_cli.py TIMINGS.json MODULE [ARG ...]

imports ``repro`` and MODULE, then calls ``MODULE.main([ARG ...])`` with
this process's stdout, and exits with its status -- what the tool's
console script does.  TIMINGS.json receives ``time.perf_counter``
readings (the system-wide monotonic clock, so the parent can place them
on its own timeline): start, after the imports, after ``main``, and the
``(start, end)`` of every ``cspm.evaluator.load_file`` call ``cspcheck``
makes.
"""

import time

start = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

timings_path, module_name, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
import repro  # noqa: E402,F401

module = importlib.import_module(module_name)
imported = time.perf_counter()

loads = []
original_load = getattr(module, "load_file", None)
if original_load is not None:

    def load_file(*args, **kwargs):
        began = time.perf_counter()
        try:
            return original_load(*args, **kwargs)
        finally:
            loads.append((began, time.perf_counter()))

    module.load_file = load_file

try:
    status = module.main(argv)
except SystemExit as stop:
    status = stop.code
ran = time.perf_counter()
sys.stdout.flush()
with open(timings_path, "w", encoding="utf-8") as handle:
    json.dump({"start": start, "imported": imported, "ran": ran, "load": loads}, handle)
sys.exit(status)
