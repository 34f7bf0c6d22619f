"""Three-level ordinal labels shared by both affect dimensions.

Arousal uses High/Medium/Low, valence uses Positive/Neutral/Negative; the two
vocabularies alias pairwise and map onto the numeric anchors 1.0 / 0.0 / -1.0.
"""

import enum


class OrdinalLabel(enum.IntEnum):
    """Ordered category with Low < Medium < High.

    The valence names are aliases: ``OrdinalLabel.POSITIVE is OrdinalLabel.HIGH``.
    """

    LOW = 0
    MEDIUM = 1
    HIGH = 2

    NEGATIVE = 0
    NEUTRAL = 1
    POSITIVE = 2

    @property
    def numeric(self) -> float:
        """Numeric anchor: High/Positive 1.0, Medium/Neutral 0.0, Low/Negative -1.0."""
        return float(self) - 1.0


# each dimension's label tokens, in label order: Low/Negative first
VOCABULARY = {
    "arousal": ("low", "medium", "high"),
    "valence": ("negative", "neutral", "positive"),
}
DIMENSIONS = tuple(VOCABULARY)

_LABEL_TOKENS = {token: OrdinalLabel(i)
                 for tokens in VOCABULARY.values() for i, token in enumerate(tokens)}


def parse_label(token: str) -> OrdinalLabel:
    """Parse a label token (either vocabulary, case-insensitive)."""
    key = token.strip().lower()
    if key not in _LABEL_TOKENS:
        raise ValueError(f"unknown ordinal label token {token!r}")
    return _LABEL_TOKENS[key]

