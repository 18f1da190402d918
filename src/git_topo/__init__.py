"""Exact GIT stability, destabilizing strata, and connectivity bounds.

Three model families (quiver representations, linear control systems,
star-DAG Gaussian samples) share one pipeline: point-level stability
checks in exact arithmetic, destabilizing 1-PS stratum tables under a
choice of orbit convention, the connectivity bound d_min with its
homotopy consequences, and a seeded verification harness.  Import from
the submodules (`git_topo.families`, `git_topo.reports`, ...).
"""

__version__ = "0.1.0"
