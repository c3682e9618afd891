"""The repository's end-to-end benchmark (see ``benchmarks/e2e/README.md``).

``run.py`` is the command; each workload runs in a fresh process via
``python -m e2ebench.child``.  The package only calls the analysis
stack's public functions and never changes anything under ``src/``.
"""
