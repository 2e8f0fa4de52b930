"""Numerical laboratory for adaptation of a phenotypically structured
population migrating between two habitats with shifted fitness optima.

The deterministic density model, its principal-eigenvalue persistence
criterion, a stochastic individual-based counterpart, and critical
parameter searches share one parameter object, model.ModelParams. The
submodules (model, grid, hermite, eigen, pde, ibm, thresholds, cli) are the
API: import from them directly.
"""

__version__ = "0.1.0"
