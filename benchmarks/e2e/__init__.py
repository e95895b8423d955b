"""End-to-end benchmark over the four units of work: analyze, serve,
campaign, fabric.  Entry point: ``benchmarks/e2e/run.py``; see the
README next to this file."""
