"""Ordered labeled trees of table-structure HTML and a strict fragment parser.

The grammar covers exactly the tags that carry structure: table, thead,
tbody, tr, td (th is accepted and normalized to td). Everything inside a td
is content and is discarded. Span attributes must be positive integers in
ASCII digits, at most 1000 for colspan and 65534 for rowspan (the WHATWG
HTML limits). Parse errors report the byte offset of the offending token.

Tokenizing is one regex: ``finditer`` finds each ``<`` and takes the tag up
to the first ``>``, skipping the text between tags; a second regex reads
the attributes one at a time. A single generator decodes every tag in
order, cell content included, and the structure loop and the cell-content
loop both consume it. Whitespace in these patterns is exactly what
``str.isspace`` accepts, the same set ``str.strip`` removes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import HtmlParseError

# parent tag -> tags allowed directly underneath; the keys are the structure tags
_ALLOWED_CHILDREN = {
    "table": ("thead", "tbody"),
    "thead": ("tr",),
    "tbody": ("tr",),
    "tr": ("td",),
    "td": (),
}


@dataclass
class TableTree:
    """One node of the structure tree; the root node stands for the whole tree."""

    tag: str
    colspan: int = 1
    rowspan: int = 1
    children: list["TableTree"] = field(default_factory=list)

    def size(self) -> int:
        """Number of nodes in the subtree rooted here."""
        return 1 + sum(child.size() for child in self.children)

    def iter_postorder(self):
        for child in self.children:
            yield from child.iter_postorder()
        yield self

    def to_html(self) -> str:
        attrs = ""
        if self.tag == "td":
            if self.colspan != 1:
                attrs += f' colspan="{self.colspan}"'
            if self.rowspan != 1:
                attrs += f' rowspan="{self.rowspan}"'
        inner = "".join(child.to_html() for child in self.children)
        return f"<{self.tag}{attrs}>{inner}</{self.tag}>"


# A tag runs from "<" to the first ">": the "/" of a closing tag, the name,
# the attribute text and the ">" itself, empty when the fragment ends first.
_TAG = re.compile(r"<\s*(/?)\s*([^\s>]*)([^>]*)(>?)")
# One attribute: its key, then after "=" a quoted or bare value. The group
# that matched last says which; "key" alone means there was no "=", and
# "unclosed" is an opening quote that never closes.
_ATTR = re.compile(
    r"""\s*(?P<key>[^\s=]*)\s*
    (?:=\s*(?:"(?P<double>[^"]*)"|'(?P<single>[^']*)'|(?P<unclosed>["'])|(?P<bare>\S*)))?""",
    re.VERBOSE,
)


def _tags(text: str):
    """Yield (name, closing, attributes, start, end) for each tag in ``text``.

    Text between tags is skipped. Every tag is decoded, so a malformed tag
    raises at its offset wherever it stands.
    """
    for tag in _TAG.finditer(text):
        slash, name, body, closed = tag.groups()
        start = tag.start()
        if not closed:
            raise HtmlParseError("unterminated tag", start)
        body = body.strip()
        if (body or name or slash).endswith("/"):
            raise HtmlParseError("self-closing tags are not part of the table grammar", start)
        if not name:
            raise HtmlParseError("empty tag", start)
        name = name.lower()
        if slash and body:
            raise HtmlParseError(f"attributes on closing tag </{name}>", start)
        attrs: dict[str, str] = {}
        pos = 0
        while pos < len(body):
            attr = _ATTR.match(body, pos)
            key = attr["key"].lower()
            if attr.lastgroup == "key":
                raise HtmlParseError(f"attribute {key!r} without value", start)
            if attr.lastgroup == "unclosed":
                raise HtmlParseError(f"unterminated value for attribute {key!r}", start)
            attrs[key] = attr[attr.lastgroup]
            pos = attr.end()
        yield name, bool(slash), attrs, start, tag.end()


# int() alone would also take "_" separators and non-ASCII digits
_SPAN_VALUE = re.compile(r"\s*[+-]?[0-9]+\s*")
# the WHATWG HTML limits for td/th spans
_SPAN_LIMITS = {"colspan": 1000, "rowspan": 65534}


def _span_value(attrs: dict[str, str], key: str, offset: int) -> int:
    raw = attrs.get(key)
    if raw is None:
        return 1
    if _SPAN_VALUE.fullmatch(raw) is None:
        raise HtmlParseError(f"non-integer {key} value {raw!r}", offset)
    limit = _SPAN_LIMITS[key]
    try:
        value = int(raw)
    except ValueError:  # int() converts at most 4300 digits
        raise HtmlParseError(f"{key} value of {len(raw)} characters exceeds {limit}", offset)
    if value < 1:
        raise HtmlParseError(f"{key} value {value} < 1", offset)
    if value > limit:
        raise HtmlParseError(f"{key} value {value} exceeds {limit}", offset)
    return value


def parse_table_html(fragment: str) -> TableTree:
    """Parse a single table fragment into its structure tree.

    th cells are normalized to td. Text and unknown tags inside cells are
    dropped. Structural violations (unbalanced tags, td outside tr, bad span
    values) raise HtmlParseError with the byte offset.
    """
    tags = _tags(fragment)
    first = next(tags, None)
    if first is None:
        raise HtmlParseError("expected a tag", len(fragment))
    name, closing, _, offset, _ = first
    if closing or name != "table":
        raise HtmlParseError("fragment must start with <table>", offset)
    root = TableTree("table")
    stack: list[TableTree] = [root]

    for name, closing, attrs, offset, end in tags:
        normalized = "td" if name == "th" else name
        parent = stack[-1]
        if closing:
            if normalized != parent.tag:
                raise HtmlParseError(f"</{name}> does not match open <{parent.tag}>", offset)
            stack.pop()
            if not stack:
                break
        elif normalized not in _ALLOWED_CHILDREN:
            raise HtmlParseError(f"unexpected tag <{name}>", offset)
        elif normalized not in _ALLOWED_CHILDREN[parent.tag]:
            raise HtmlParseError(f"<{normalized}> not allowed inside <{parent.tag}>", offset)
        elif normalized == "td":
            parent.children.append(
                TableTree(
                    "td",
                    colspan=_span_value(attrs, "colspan", offset),
                    rowspan=_span_value(attrs, "rowspan", offset),
                )
            )
            # cell content up to the matching closing tag; unknown tags are
            # dropped without balance checks, structure tags are rejected
            for inner, inner_closing, _, inner_offset, _ in tags:
                if inner == name and inner_closing:
                    break
                if inner in ("td", "th"):
                    raise HtmlParseError("nested table cell", inner_offset)
                if inner in _ALLOWED_CHILDREN:
                    raise HtmlParseError(f"structure tag <{inner}> inside a cell", inner_offset)
            else:
                raise HtmlParseError(f"<{name}> never closed", offset)
        else:
            node = TableTree(normalized)
            parent.children.append(node)
            stack.append(node)
    else:
        raise HtmlParseError(f"<{stack[-1].tag}> never closed", len(fragment))

    # only the next "<" matters here; the tag it opens is not decoded
    trailing = fragment.find("<", end)
    if trailing >= 0:
        raise HtmlParseError("content after </table>", trailing)
    return root
