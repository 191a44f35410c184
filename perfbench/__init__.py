"""A layered benchmark for the stencil server and engines; run
``python3 perfbench/run.py --help`` from the repository root."""
