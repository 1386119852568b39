from .distance import (
    CorpusTedsReport,
    backend_name,
    corpus_teds,
    teds,
    tree_edit_distance,
    tree_is_complex,
)
from .tree import TableTree, parse_table_html

__all__ = [
    "CorpusTedsReport",
    "TableTree",
    "backend_name",
    "corpus_teds",
    "parse_table_html",
    "teds",
    "tree_edit_distance",
    "tree_is_complex",
]
