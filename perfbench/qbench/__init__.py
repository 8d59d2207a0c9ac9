"""The QMatch repository benchmark (see ``perfbench/README.md``).

``perfbench/run.py`` is the one command; the modules here are its
parts: seeded inputs, the HTTP load client, the service process
harness, the correctness gate, the traced per-layer run and the three
workloads.
"""
