"""Simulated time.

The study spans 174 days (2023-07-03 .. 2023-12-24) plus passive-trace
windows in 2024.  We model time as integer Unix seconds (UTC) and provide a
simulation clock that components advance explicitly — no wall-clock reads
anywhere in the library, which keeps every run deterministic.
"""

from __future__ import annotations

import calendar
import time as _time
from dataclasses import dataclass

Timestamp = int  # Unix seconds, UTC

_ISO_FMT = "%Y-%m-%dT%H:%M:%S"
_DAY_FMT = "%Y-%m-%d"


def parse_ts(text: str) -> Timestamp:
    """Parse ``YYYY-MM-DD`` or ``YYYY-MM-DDTHH:MM:SS`` (UTC) to Unix seconds."""
    fmt = _ISO_FMT if "T" in text else _DAY_FMT
    return calendar.timegm(_time.strptime(text, fmt))


def format_ts(ts: Timestamp) -> str:
    """Render Unix seconds as ``YYYY-MM-DDTHH:MM:SS`` (UTC)."""
    return _time.strftime(_ISO_FMT, _time.gmtime(ts))


def format_day(ts: Timestamp) -> str:
    """Render Unix seconds as ``YYYY-MM-DD`` (UTC)."""
    return _time.strftime(_DAY_FMT, _time.gmtime(ts))


def day_of(ts: Timestamp) -> Timestamp:
    """Truncate a timestamp to 00:00:00 of its UTC day."""
    return ts - ts % 86400


MINUTE = 60
HOUR = 3600
DAY = 86400


@dataclass
class SimClock:
    """An explicitly-advanced simulation clock.

    The clock never reads the host's wall clock.  Components that need
    "now" receive the clock (or a timestamp) as an argument.
    """

    now: Timestamp = 0

    def advance(self, seconds: int) -> Timestamp:
        """Move time forward; negative advances are programming errors."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds}s")
        self.now += seconds
        return self.now

    def set(self, ts: Timestamp) -> None:
        """Jump to an absolute time (must not move backwards)."""
        if ts < self.now:
            raise ValueError(f"clock may not move backwards ({ts} < {self.now})")
        self.now = ts
