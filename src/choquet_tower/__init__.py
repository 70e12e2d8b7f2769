"""Choquet integration over capacities, layered uncertainty, and its laws."""

__version__ = "0.1.0"
