"""End-to-end benchmark of the Scrub reproduction; run ``perfbench/run.py``."""
