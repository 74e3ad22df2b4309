"""Enumeration bounds.

Every exponential enumeration is guarded by a hard bound; exceeding it raises
TooLarge rather than truncating.  The bounds are the constants below, and no
operation takes a bound argument.  The MMLAB_MAX_ORDER environment variable
is the only override: when set, it replaces the per-operation *order* bounds
(class-count bounds).
"""

from __future__ import annotations

import os

from .errors import TooLarge, decimal

MAX_CLASS_SIZE = 4
ISO_CLASS_SIZE = 3
MATROID_ENUM_BOUND = 16
TUTTE_DIAGONAL_SIZE = 10
CYCLE_SPACE_COLS = 24

ORDER_GENERAL = 8
ORDER_CYCLE_SPACE = 6
ORDER_ORT = 7
ORDER_EVALS = 6
ORDER_ISO = 5
ORDER_MINOR_SCAN = 6
ORDER_CLASSIFY = 5
ORDER_STRONGLY_BINARY = 10
ORDER_EXTENSION = 4

VERTEX_INTERLACE = 12
VERTEX_GLOBAL_INTERLACE = 9
VERTEX_EULERIAN = 20
VERTEX_ORT_EULERIAN = 12
GRAPH_VERTICES = 1 << 16


def order_limit(default: int) -> int:
    """Effective order bound: MMLAB_MAX_ORDER overrides the default."""
    raw = os.environ.get("MMLAB_MAX_ORDER")
    if raw is None or raw == "":
        return default
    try:
        return decimal(raw)
    except ValueError:
        raise TooLarge(f"MMLAB_MAX_ORDER is not an integer: {raw!r}")


def check_order(order: int, default: int, op: str) -> None:
    limit = order_limit(default)
    if order > limit:
        raise TooLarge(f"{op}: order {order} exceeds bound {limit}")


def check_size(value: int, limit: int, op: str) -> None:
    if value > limit:
        raise TooLarge(f"{op}: size {value} exceeds bound {limit}")
