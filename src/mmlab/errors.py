"""Exception hierarchy for mmlab.

Every domain-level failure raises a subclass of MMLabError carrying a stable
``code`` used by the CLI to build machine-readable error objects.
"""

from __future__ import annotations

import re

DECIMAL = "[+-]?[0-9]+"  # an integer in the text formats and flags


def decimal(text: str) -> int:
    """int(text) when text is ASCII decimal digits after an optional sign;
    ValueError otherwise, also on the `1_0` and other scripts' digits int() reads."""
    if re.fullmatch(DECIMAL, text.strip()) is None:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


class MMLabError(Exception):
    """Base class for all mmlab domain errors."""

    code = "Error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class MalformedInput(MMLabError):
    """Unparseable file or flag value (CLI exit code 1)."""

    code = "MalformedInput"


class FieldMismatch(MMLabError):
    code = "FieldMismatch"


class UnknownElement(MMLabError):
    code = "UnknownElement"


class TooLarge(MMLabError):
    code = "TooLarge"


class NotStandardForm(MMLabError):
    code = "NotStandardForm"


class OverlappingSets(MMLabError):
    code = "OverlappingSets"


class LabelCollision(MMLabError):
    code = "LabelCollision"


class GroundMismatch(MMLabError):
    code = "GroundMismatch"


class NotBinary(MMLabError):
    code = "NotBinary"


class NotSubtransversal(MMLabError):
    code = "NotSubtransversal"


class NotTriple(MMLabError):
    code = "NotTriple"


class Degenerate(MMLabError):
    code = "Degenerate"


class NotTight(MMLabError):
    code = "NotTight"


class NotOrienting(MMLabError):
    code = "NotOrienting"


class NotBinaryTight3(MMLabError):
    code = "NotBinaryTight3"


class IncompleteWeights(MMLabError):
    code = "IncompleteWeights"


class HasLoops(MMLabError):
    code = "HasLoops"


class NotSymmetric(MMLabError):
    code = "NotSymmetric"


class NotInvSymmetric(MMLabError):
    code = "NotInvSymmetric"


class ConstructionMismatch(MMLabError):
    code = "ConstructionMismatch"


class NotClassUnion(MMLabError):
    code = "NotClassUnion"


class InternalInconsistency(MMLabError):
    """Two routes that must agree disagreed; signals a bug, never caught."""

    code = "InternalInconsistency"


class NoBasis(MMLabError):
    code = "NoBasis"
