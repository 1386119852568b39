"""Ordered labeled trees of table-structure HTML and a strict fragment parser.

The grammar covers exactly the tags that carry structure: table, thead,
tbody, tr, td (th is accepted and normalized to td). Everything inside a td
is content and is discarded. Text outside tags is discarded too, wherever
it stands: before <table>, between structure tags and after </table>. Only
a tag after </table> is an error. Span attributes must be positive integers
in ASCII digits, at most 1000 for colspan and 65534 for rowspan (the WHATWG
HTML limits). Parse errors report the character offset of the offending
token (an index into the ``str``, not a UTF-8 byte count).

Where ``distance.compiled()``, the backend rule, returns the extension,
``parse_table_html`` first offers the fragment to its scanner, which reads
exactly the canonical form ``TableTree.to_html`` writes: lowercase tags
without whitespace, text or th, a td's colspan and then rowspan written only
when not 1, in double quotes without a leading zero, and nothing before
<table> or after </table>. It builds each node by calling ``TableTree``. It
declines every other fragment, and the grammar below then parses it as it
would without the extension; the grammar is the only source of
``HtmlParseError``.

Tokenizing is one ``findall``: each tag runs from a ``<`` to the first
``>``, and the text between tags is never matched. Each distinct tag text
is decoded once into immutable values (name, closing flag, spans, or why
the tag or its spans are bad) and memoized, so a fragment costs one lookup
per tag. The structure loop and the cell-content loop walk the decoded
list by index and raise a decoded reason only when they reach its tag, so
an earlier structural error still comes first. Offsets are computed only
for an error, by finding the failing tag again. Whitespace in these
patterns is exactly what ``str.isspace`` accepts, the same set
``str.strip`` removes.
"""
from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field

from ..errors import HtmlParseError
from .distance import compiled

# parent tag -> tags allowed directly underneath; the keys are the structure tags
_ALLOWED_CHILDREN = {
    "table": ("thead", "tbody"),
    "thead": ("tr",),
    "tbody": ("tr",),
    "tr": ("td",),
    "td": (),
}


@dataclass(slots=True)
class TableTree:
    """One node of the structure tree; the root node stands for the whole tree."""

    tag: str
    colspan: int = 1
    rowspan: int = 1
    children: list["TableTree"] = field(default_factory=list)

    def size(self) -> int:
        """Number of nodes in the subtree rooted here."""
        return 1 + sum(child.size() for child in self.children)

    def to_html(self) -> str:
        parts: list[str] = []
        _append_html(self, parts)
        return "".join(parts)


def _append_html(node: TableTree, parts: list[str]):
    if node.tag == "td":
        colspan = f' colspan="{node.colspan}"' if node.colspan != 1 else ""
        rowspan = f' rowspan="{node.rowspan}"' if node.rowspan != 1 else ""
        parts.append(f"<td{colspan}{rowspan}>")
    else:
        parts.append(f"<{node.tag}>")
    for child in node.children:
        _append_html(child, parts)
    parts.append(f"</{node.tag}>")


# A tag runs from "<" to the first ">", or to the end of the fragment when
# no ">" follows; text between tags is never matched.
_TAG_TEXT = re.compile(r"<[^>]*>?")
# One tag's text: the "/" of a closing tag, the name, the attribute text and
# the ">" itself, empty when the fragment ends first.
_TAG = re.compile(r"<\s*(/?)\s*([^\s>]*)([^>]*)(>?)")
# One attribute: its key, then after "=" a quoted or bare value. The group
# that matched last says which; "key" alone means there was no "=", and
# "unclosed" is an opening quote that never closes.
_ATTR = re.compile(
    r"""\s*(?P<key>[^\s=]*)\s*
    (?:=\s*(?:"(?P<double>[^"]*)"|'(?P<single>[^']*)'|(?P<unclosed>["'])|(?P<bare>\S*)))?""",
    re.VERBOSE,
)

# int() alone would also take "_" separators and non-ASCII digits
_SPAN_VALUE = re.compile(r"\s*[+-]?[0-9]+\s*")
# the WHATWG HTML limits for td/th spans
_SPAN_LIMITS = {"colspan": 1000, "rowspan": 65534}
# what a cell's content may not hold: cells, structure tags, malformed tags
_NOT_IN_CELL = ("td", "th", *_ALLOWED_CHILDREN, None)


def _span_value(attrs: dict[str, str], key: str) -> int | str:
    """The span ``key`` sets, 1 when absent, or why its value is rejected."""
    raw = attrs.get(key)
    if raw is None:
        return 1
    if _SPAN_VALUE.fullmatch(raw) is None:
        return f"non-integer {key} value {raw!r}"
    limit = _SPAN_LIMITS[key]
    try:
        value = int(raw)
    except ValueError:  # int() converts at most 4300 digits
        return f"{key} value of {len(raw)} characters exceeds {limit}"
    if value < 1:
        return f"{key} value {value} < 1"
    if value > limit:
        return f"{key} value {value} exceeds {limit}"
    return value


@functools.lru_cache(maxsize=512)
def _decode(tag: str) -> tuple:
    """(name, closing, colspan, rowspan, error) of one tag's text.

    A malformed tag has name None and says why in ``error``. A td or th
    opening tag with a bad span has its name and the span's reason in
    ``error``; every other tag has spans 1 and no error. The tuple holds
    only immutable values, so one decoding serves every occurrence of the
    same text.
    """
    slash, name, body, closed = _TAG.match(tag).groups()
    if not closed:
        return None, False, 1, 1, "unterminated tag"
    body = body.strip()
    if (body or name or slash).endswith("/"):
        return None, False, 1, 1, "self-closing tags are not part of the table grammar"
    if not name:
        return None, False, 1, 1, "empty tag"
    name = name.lower()
    if slash:
        if body:
            return None, False, 1, 1, f"attributes on closing tag </{name}>"
        return name, True, 1, 1, None
    attrs: dict[str, str] = {}
    pos = 0
    while pos < len(body):
        attr = _ATTR.match(body, pos)
        key = attr["key"].lower()
        if attr.lastgroup == "key":
            return None, False, 1, 1, f"attribute {key!r} without value"
        if attr.lastgroup == "unclosed":
            return None, False, 1, 1, f"unterminated value for attribute {key!r}"
        attrs[key] = attr[attr.lastgroup]
        pos = attr.end()
    if name not in ("td", "th"):
        return name, False, 1, 1, None
    colspan = _span_value(attrs, "colspan")
    if type(colspan) is str:
        return name, False, 1, 1, colspan
    rowspan = _span_value(attrs, "rowspan")
    if type(rowspan) is str:
        return name, False, 1, 1, rowspan
    return name, False, colspan, rowspan, None


def _tag_start(fragment: str, k: int) -> int:
    """Character offset of the ``k``-th tag (from 0) of ``fragment``; errors only need it."""
    return next(itertools.islice(_TAG_TEXT.finditer(fragment), k, None)).start()


def parse_table_html(fragment: str) -> TableTree:
    """Parse a single table fragment into its structure tree.

    th cells are normalized to td. Text and unknown tags inside cells are
    dropped. Structural violations (unbalanced tags, td outside tr, bad span
    values) raise HtmlParseError with the character offset.
    """
    extension = compiled()
    if extension is not None:
        tree = extension.parse_canonical(fragment, TableTree)
        if tree is not None:
            return tree
    tags = _TAG_TEXT.findall(fragment)
    if not tags:
        raise HtmlParseError("expected a tag", len(fragment))
    decoded = list(map(_decode, tags))
    name, closing, _, _, error = decoded[0]
    if name is None:
        raise HtmlParseError(error, _tag_start(fragment, 0))
    if closing or name != "table":
        raise HtmlParseError("fragment must start with <table>", _tag_start(fragment, 0))
    root = TableTree("table", 1, 1, [])
    stack: list[TableTree] = [root]
    parent = root

    positions = iter(range(1, len(decoded)))
    for k in positions:
        name, closing, colspan, rowspan, error = decoded[k]
        if closing:
            # parent is never a cell, so </td> and </th> both fail here
            if name != parent.tag:
                raise HtmlParseError(f"</{name}> does not match open <{parent.tag}>", _tag_start(fragment, k))
            stack.pop()
            if not stack:
                break
            parent = stack[-1]
            continue
        normalized = "td" if name == "th" else name
        if normalized not in _ALLOWED_CHILDREN[parent.tag]:
            if name is None:
                raise HtmlParseError(error, _tag_start(fragment, k))
            if normalized not in _ALLOWED_CHILDREN:
                raise HtmlParseError(f"unexpected tag <{name}>", _tag_start(fragment, k))
            raise HtmlParseError(f"<{normalized}> not allowed inside <{parent.tag}>", _tag_start(fragment, k))
        if normalized == "td":
            if error is not None:
                raise HtmlParseError(error, _tag_start(fragment, k))
            parent.children.append(TableTree("td", colspan, rowspan, []))
            # cell content up to the matching closing tag; unknown tags are
            # dropped without balance checks, structure tags are rejected
            for j in positions:
                inner, inner_closing, _, _, error = decoded[j]
                if inner == name and inner_closing:
                    break
                if inner in _NOT_IN_CELL:
                    if inner is None:
                        raise HtmlParseError(error, _tag_start(fragment, j))
                    if inner in ("td", "th"):
                        raise HtmlParseError("nested table cell", _tag_start(fragment, j))
                    raise HtmlParseError(f"structure tag <{inner}> inside a cell", _tag_start(fragment, j))
            else:
                raise HtmlParseError(f"<{name}> never closed", _tag_start(fragment, k))
        else:
            node = TableTree(normalized, 1, 1, [])
            parent.children.append(node)
            stack.append(node)
            parent = node
    else:
        raise HtmlParseError(f"<{stack[-1].tag}> never closed", len(fragment))

    # only the next "<" matters here; the tag it opens is not decoded
    if k + 1 < len(tags):
        raise HtmlParseError("content after </table>", _tag_start(fragment, k + 1))
    return root
