"""Neuroevolution of feed-forward binary classifiers whose genomes also
carry the evolutionary parameters that steer the search itself.

The package has no top-level re-exports: import the submodules
(``enas.evolution``, ``enas.experiment``, ``enas.nn``, ...) directly."""

__version__ = "0.1.0"
