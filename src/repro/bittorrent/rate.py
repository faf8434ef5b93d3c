"""Token-bucket rate limiting for application-level upload caps.

Real clients (including the paper's CTorrent) throttle uploads in the
application: blocks are only handed to TCP when the limiter allows.  The
paper's Figure 3(a, b) sweeps exactly this knob, and wP2P's LIHD controller
adjusts it at runtime, so the bucket supports live rate changes.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Simulator


class TokenBucket:
    """A byte-rate limiter.  ``rate=None`` means unlimited."""

    def __init__(
        self,
        sim: Simulator,
        rate: Optional[float],
        burst: Optional[float] = None,
    ) -> None:
        if rate is not None and rate < 0:
            raise ValueError("rate must be non-negative or None")
        self.sim = sim
        self.rate = rate
        # A caller-supplied burst is a configuration choice that must
        # survive live rate changes; only the default (burst == rate)
        # tracks the rate.
        self._explicit_burst = burst is not None
        self.burst = burst if burst is not None else (rate if rate else 0.0)
        self._tokens = self.burst
        self._last = sim.now
        audit = sim.audit
        if audit is not None:
            audit.register_bucket(self)

    # ------------------------------------------------------------------
    def set_rate(self, rate: Optional[float]) -> None:
        """Change the sustained rate; tokens on hand are preserved.

        A burst configured at construction is kept; the default burst
        follows the rate (including down to 0 for ``None``/``0``, so a
        bucket re-enabled later starts empty instead of spending a stale
        balance).  Tokens are always clamped to the current burst.
        """
        if rate is not None and rate < 0:
            raise ValueError("rate must be non-negative or None")
        self._refill()
        self.rate = rate
        if not self._explicit_burst:
            self.burst = rate if rate else 0.0
        self._tokens = min(self._tokens, self.burst)

    @property
    def unlimited(self) -> bool:
        return self.rate is None

    @property
    def blocked(self) -> bool:
        """True when the rate is zero — nothing may ever be sent."""
        return self.rate is not None and self.rate == 0

    def try_consume(self, nbytes: float) -> bool:
        """Take ``nbytes`` tokens if available; False otherwise."""
        if self.rate is None:
            return True
        if self.rate == 0:
            return False
        self._refill()
        if self._tokens >= nbytes:
            self._tokens -= nbytes
            return True
        return False

    def time_until(self, nbytes: float) -> float:
        """Seconds until ``nbytes`` tokens will be on hand (0 if now)."""
        if self.rate is None:
            return 0.0
        if self.rate == 0:
            return float("inf")
        self._refill()
        deficit = nbytes - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate

    def _refill(self) -> None:
        now = self.sim._now
        if self.rate:
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now

    @property
    def tokens(self) -> float:
        """Tokens on hand now.

        A pure read: the refill is computed, not committed, so an
        observer (the audit's bucket checker) cannot split one refill
        ``a + (x + y) * r`` into ``(a + x * r) + y * r`` and move the
        bucket by a rounding step.
        """
        if self.rate:
            return min(self.burst, self._tokens + (self.sim._now - self._last) * self.rate)
        return self._tokens
