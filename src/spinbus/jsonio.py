"""Strict JSON reading shared by the config and schedule loaders."""

from __future__ import annotations

import json
import math


def _reject(token: str):
    raise ValueError(f"non-finite number {token} is not allowed")


def _finite(parse):
    def checked(token: str):
        if not math.isfinite(float(token)):
            raise ValueError(f"number {token} overflows a float")
        return parse(token)

    return checked


def loads_finite(text: str):
    """``json.loads`` that raises ValueError on NaN, Infinity and on numbers
    too large for a float (``1e999``), so no non-finite value gets in."""
    return json.loads(text, parse_constant=_reject, parse_float=_finite(float), parse_int=_finite(int))
