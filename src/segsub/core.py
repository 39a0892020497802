"""Domain types for segment-budgeted subsequence matching.

A pattern is an f-segmental subsequence of a text when it can be cut into at
most f consecutive pieces that occur in the text in order, without overlaps.
Texts are byte strings; all public positions are 1-based (internal storage is
0-based, so documented formulas read like the table dumps).
"""

from __future__ import annotations

from dataclasses import dataclass

Text = bytes


def as_text(value: bytes | bytearray | str) -> bytes:
    """Coerce input to the internal byte-string form (one byte per symbol)."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, bytearray):
        return bytes(value)
    if isinstance(value, str):
        try:
            return value.encode("latin-1")
        except UnicodeEncodeError as exc:
            raise ValueError("text symbols must fit in a single byte") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as a text")


def check_budget(f: int) -> int:
    """Validate a segment budget at the API boundary."""
    if not isinstance(f, int) or isinstance(f, bool) or f < 1:
        raise ValueError(f"segment budget must be a positive integer, got {f!r}")
    return f


@dataclass(frozen=True)
class Segmentation:
    """An ordered split of a pattern into consecutive, possibly empty segments."""

    segments: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a segmentation has at least one segment")
        object.__setattr__(
            self, "segments", tuple(as_text(s) for s in self.segments)
        )

    @property
    def pattern(self) -> bytes:
        return b"".join(self.segments)

    @property
    def segment_count(self) -> int:
        return len(self.segments)


@dataclass(frozen=True)
class Embedding:
    """A placement of a segmentation's segments at 1-based text positions.

    Empty segments carry the position they would start at, which may be one
    past the end of the text.
    """

    segmentation: Segmentation
    starts: tuple[int, ...]


def verify_embedding(t: bytes | str, e: Embedding) -> bool:
    """Check that the embedding decomposes ``t`` exactly.

    Malformed embeddings (wrong arity, out-of-order or out-of-range starts,
    segments that do not match the text) return False rather than raising.
    """
    text = as_text(t)
    segments = e.segmentation.segments
    starts = e.starts
    if len(starts) != len(segments):
        return False
    cursor = 1  # earliest position the next segment may start at
    for segment, start in zip(segments, starts):
        if not isinstance(start, int) or isinstance(start, bool):
            return False
        if start < cursor or start > len(text) + 1:
            return False
        end = start + len(segment)
        if end > len(text) + 1:
            return False
        if text[start - 1 : end - 1] != segment:
            return False
        cursor = end
    return True

