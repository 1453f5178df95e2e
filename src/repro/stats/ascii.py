"""Plain-text rendering of power curves and sweeps.

The library runs in terminals and CI logs; these helpers render success
curves and scaling sweeps as aligned text charts so experiment output is
readable without a plotting stack.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..exceptions import InvalidParameterError

#: Eight vertical levels, the classic sparkline alphabet.
SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], minimum: Optional[float] = None, maximum: Optional[float] = None) -> str:
    """One-line sparkline of a numeric series.

    Bounds default to the data range; pass explicit bounds to compare
    several sparklines on a common scale.
    """
    series = [float(v) for v in values]
    if not series:
        raise InvalidParameterError("sparkline needs at least one value")
    low = min(series) if minimum is None else float(minimum)
    high = max(series) if maximum is None else float(maximum)
    if high < low:
        raise InvalidParameterError(f"maximum {high} below minimum {low}")
    span = high - low
    if span == 0:
        return SPARK_LEVELS[0] * len(series)
    characters = []
    top = len(SPARK_LEVELS) - 1
    for value in series:
        clipped = min(max(value, low), high)
        characters.append(SPARK_LEVELS[round((clipped - low) / span * top)])
    return "".join(characters)


def success_curve_plot(
    levels: Sequence[int],
    successes: Sequence[float],
    target: float = 2.0 / 3.0,
    width: int = 50,
) -> str:
    """A success-vs-resource curve with the 2/3 target marked.

    Each row is one resource level; the column position of ``●`` encodes
    the success probability and ``|`` marks the target line.
    """
    if len(levels) != len(successes) or not levels:
        raise InvalidParameterError("levels and successes must be non-empty and equal length")
    if not 0.0 < target < 1.0:
        raise InvalidParameterError(f"target must be in (0,1), got {target}")
    if width < 10:
        raise InvalidParameterError(f"width must be >= 10, got {width}")
    target_col = round(target * (width - 1))
    level_width = max(len(str(level)) for level in levels)
    lines = [
        f"{'level'.rjust(level_width)}  0{' ' * (target_col - 1)}|{' ' * (width - target_col - 2)}1"
    ]
    for level, success in zip(levels, successes):
        if not 0.0 <= success <= 1.0:
            raise InvalidParameterError(f"success {success} outside [0,1]")
        column = round(success * (width - 1))
        row = [" "] * width
        row[target_col] = "|"
        row[column] = "●"
        lines.append(f"{str(level).rjust(level_width)}  {''.join(row)} {success:.2f}")
    return "\n".join(lines)
