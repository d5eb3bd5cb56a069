"""Injectable monotonic time sources (real and simulated)."""

from __future__ import annotations

import threading
import time


class Clock:
    def now(self) -> float:
        raise NotImplementedError


class SystemClock(Clock):
    def now(self) -> float:
        return time.monotonic()


class SimulatedClock(Clock):
    """Manually advanced clock; never moves backwards.

    `now` reads the current time without the lock: one attribute read is
    atomic, and it is the clock's hottest call (each transcript frame and each
    key-table lookup makes one). `advance` and `advance_to` keep the lock, so
    two concurrent steps cannot lose one another.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        with self._lock:
            self._now += seconds
            return self._now

    def advance_to(self, timestamp: float) -> float:
        with self._lock:
            self._now = max(self._now, float(timestamp))
            return self._now
