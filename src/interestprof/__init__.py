"""Taxonomy-driven user interest profiling from top-k image-classifier outputs."""

__version__ = "0.1.0"

from .taxonomy import (  # noqa: F401
    TOPICS,
    Taxonomy,
    load_taxonomy,
    parse_taxonomy,
    topic_index,
    topic_of_instance,
)
