"""Repository benchmark: paper sweeps and the repair tier, end to end
and layer by layer.  Run it with ``python3 perfbench/run.py``; see
``perfbench/README.md``."""
