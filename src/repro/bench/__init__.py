"""Experiment drivers that reproduce the paper: one module per table/figure.

Every driver is a deterministic modelled-disk experiment: ``run()``
computes a result, ``render(result)`` formats the paper-shaped table and
touches nothing on disk.  Two entry points run at the default scale and
persist the tables under ``benchmarks/results/`` (committed; a rerun
regenerates them byte-identically)::

    python -m repro.bench all          # or tables|fig6|fig7|fig8|fig9|space|ablation
    python -m pytest benchmarks/

The second also asserts the paper's claims (orderings, factors,
crossovers); ``benchmarks/pytest.ini`` makes it collect ``bench_*.py``,
which the tier-1 command run from the repo root does not.  Whether a
change made the system better or worse is judged by
``benchmarks/stegbench``, not here.
"""

from repro.bench import ablation, common, fig6, fig7, fig8, fig9, space, tables

__all__ = ["ablation", "common", "fig6", "fig7", "fig8", "fig9", "space", "tables"]
