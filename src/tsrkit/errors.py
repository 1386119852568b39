"""Exception types shared across tsrkit modules."""


class TsrkitError(Exception):
    """Base class for all tsrkit-specific errors."""


class LabelModeError(TsrkitError):
    """An annotation set was passed to a transform expecting the other label mode."""


class LabelConsistencyError(TsrkitError):
    """Box sharing between classes violates the single-label constraints."""


class EmptyStructureError(TsrkitError):
    """No rows or no columns survive thresholding; nothing to reconstruct."""


class HtmlParseError(TsrkitError):
    """Table HTML fragment rejected by the structure grammar.

    ``offset`` is the character offset of the offending token in the input:
    an index into the ``str``, not a count of its UTF-8 bytes.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at character {offset})")
        self.offset = offset


class SchemaError(TsrkitError):
    """A corpus file record violates the schema; message carries the field path."""


class CorpusError(TsrkitError):
    """Corpus-level evaluation failure (inconsistent inputs)."""
