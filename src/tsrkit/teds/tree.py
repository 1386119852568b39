"""Ordered labeled trees of table-structure HTML and a strict fragment parser.

The grammar covers exactly the tags that carry structure: table, thead,
tbody, tr, td (th is accepted and normalized to td). Everything inside a td
is content and is discarded. Span attributes must be positive integers in
ASCII digits, at most 1000 for colspan and 65534 for rowspan (the WHATWG
HTML limits). Parse errors report the byte offset of the offending token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import HtmlParseError

STRUCTURE_TAGS = ("table", "thead", "tbody", "tr", "td")

# parent tag -> tags allowed directly underneath
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


class _Scanner:
    """Tokenizer over the raw fragment, tracking byte offsets for errors."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, offset: int | None = None):
        raise HtmlParseError(message, self.pos if offset is None else offset)

    def skip_text(self):
        """Advance past inter-tag content; all text is discarded (structure only)."""
        nxt = self.text.find("<", self.pos)
        self.pos = len(self.text) if nxt < 0 else nxt

    def at_end(self) -> bool:
        self.skip_text()
        return self.pos >= len(self.text)

    def next_tag(self) -> tuple[str, bool, dict[str, str], int]:
        """Return (name, is_closing, attributes, offset) for the next tag."""
        self.skip_text()
        start = self.pos
        if start >= len(self.text) or self.text[start] != "<":
            self.error("expected a tag")
        end = self.text.find(">", start)
        if end < 0:
            self.error("unterminated tag", start)
        raw = self.text[start + 1 : end].strip()
        self.pos = end + 1
        if raw.endswith("/"):
            self.error("self-closing tags are not part of the table grammar", start)
        closing = raw.startswith("/")
        if closing:
            raw = raw[1:].strip()
        # any whitespace separates the name from the attributes, as in HTML
        parts = raw.split(None, 1)
        name = parts[0].lower() if parts else ""
        attr_text = parts[1] if len(parts) > 1 else ""
        if not name:
            self.error("empty tag", start)
        if closing and attr_text.strip():
            self.error(f"attributes on closing tag </{name}>", start)
        attrs = _parse_attrs(attr_text, self, start)
        return name, closing, attrs, start


def _parse_attrs(text: str, scanner: _Scanner, offset: int) -> dict[str, str]:
    attrs: dict[str, str] = {}
    i = 0
    n = len(text)
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        j = i
        while j < n and text[j] != "=" and not text[j].isspace():
            j += 1
        key = text[i:j].lower()
        while j < n and text[j].isspace():
            j += 1
        if j >= n or text[j] != "=":
            scanner.error(f"attribute {key!r} without value", offset)
        j += 1
        while j < n and text[j].isspace():
            j += 1
        if j < n and text[j] in "\"'":
            quote = text[j]
            k = text.find(quote, j + 1)
            if k < 0:
                scanner.error(f"unterminated value for attribute {key!r}", offset)
            attrs[key] = text[j + 1 : k]
            i = k + 1
        else:
            k = j
            while k < n and not text[k].isspace():
                k += 1
            attrs[key] = text[j:k]
            i = k
    return attrs


# int() alone would also take "_" separators and non-ASCII digits
_SPAN_VALUE = re.compile(r"\s*[+-]?[0-9]+\s*")
# the WHATWG HTML limits for td/th spans
_SPAN_LIMITS = {"colspan": 1000, "rowspan": 65534}


def _span_value(attrs: dict[str, str], key: str, scanner: _Scanner, offset: int) -> int:
    raw = attrs.get(key)
    if raw is None:
        return 1
    if _SPAN_VALUE.fullmatch(raw) is None:
        scanner.error(f"non-integer {key} value {raw!r}", offset)
    limit = _SPAN_LIMITS[key]
    try:
        value = int(raw)
    except ValueError:  # int() converts at most 4300 digits
        scanner.error(f"{key} value of {len(raw)} characters exceeds {limit}", offset)
    if value < 1:
        scanner.error(f"{key} value {value} < 1", offset)
    if value > limit:
        scanner.error(f"{key} value {value} exceeds {limit}", offset)
    return value


def _skip_cell_content(scanner: _Scanner, cell_tag: str, cell_offset: int):
    """Consume everything up to the matching closing tag.

    Unknown tags (formatting, line breaks, ...) are dropped without balance
    checks; structure tags inside a cell are rejected.
    """
    while True:
        if scanner.at_end():
            scanner.error(f"<{cell_tag}> never closed", cell_offset)
        name, closing, _, offset = scanner.next_tag()
        if name == cell_tag and closing:
            return
        if name in ("td", "th"):
            scanner.error("nested table cell", offset)
        if name in STRUCTURE_TAGS:
            scanner.error(f"structure tag <{name}> inside a cell", offset)


def parse_table_html(fragment: str) -> TableTree:
    """Parse a single table fragment into its structure tree.

    th cells are normalized to td. Text and unknown tags inside cells are
    dropped. Structural violations (unbalanced tags, td outside tr, bad span
    values) raise HtmlParseError with the byte offset.
    """
    scanner = _Scanner(fragment)
    name, closing, _, offset = scanner.next_tag()
    if closing or name != "table":
        scanner.error("fragment must start with <table>", offset)
    root = TableTree("table")
    stack: list[TableTree] = [root]

    while stack:
        if scanner.at_end():
            scanner.error(f"<{stack[-1].tag}> never closed", len(fragment))
        name, closing, attrs, offset = scanner.next_tag()
        normalized = "td" if name == "th" else name
        if closing:
            if normalized != stack[-1].tag:
                scanner.error(
                    f"</{name}> does not match open <{stack[-1].tag}>", offset
                )
            stack.pop()
            continue
        if normalized not in STRUCTURE_TAGS:
            scanner.error(f"unexpected tag <{name}>", offset)
        parent = stack[-1]
        if normalized not in _ALLOWED_CHILDREN[parent.tag]:
            scanner.error(f"<{normalized}> not allowed inside <{parent.tag}>", offset)
        if normalized == "td":
            node = TableTree(
                "td",
                colspan=_span_value(attrs, "colspan", scanner, offset),
                rowspan=_span_value(attrs, "rowspan", scanner, offset),
            )
            parent.children.append(node)
            _skip_cell_content(scanner, name, offset)
        else:
            node = TableTree(normalized)
            parent.children.append(node)
            stack.append(node)

    if not scanner.at_end():
        scanner.error("content after </table>")
    return root
