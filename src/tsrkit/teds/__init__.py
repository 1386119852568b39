from .distance import (
    CorpusTedsReport,
    PairScore,
    backend_name,
    corpus_teds,
    teds,
    tree_edit_distance,
    tree_is_complex,
)
from .tree import TableTree, parse_table_html

__all__ = [
    "CorpusTedsReport",
    "PairScore",
    "TableTree",
    "backend_name",
    "corpus_teds",
    "parse_table_html",
    "teds",
    "tree_edit_distance",
    "tree_is_complex",
]
