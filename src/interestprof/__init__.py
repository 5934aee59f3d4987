"""Taxonomy-driven user interest profiling from top-k image-classifier outputs."""

__version__ = "0.1.0"
