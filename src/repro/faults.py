"""Fault injection: prove failure modes degrade gracefully.

A hardened service earns its robustness claims by *demonstrating* them:
every recovery path in the daemon (cache quarantine, worker crash
containment, deadline enforcement, socket-error handling) has a named
**fault site**, and the test suite arms those sites to raise, hang, or
corrupt on demand and then asserts the service is still serving.

Faults are configured from the ``MAYA_FAULTS`` environment variable or
programmatically via :func:`configure`.  The spec is a comma-separated
list of arms::

    MAYA_FAULTS="worker.execute:crash:times=1,cache.disk.load:corrupt"

Each arm is ``site:mode[:key=value ...]`` where

* ``site`` names an instrumented checkpoint (see the ``SITE_*``
  constants below);
* ``mode`` is one of ``raise`` (raise :class:`InjectedFault`),
  ``hang`` (sleep ``secs``), ``crash`` (raise :class:`WorkerCrash`,
  simulating hard worker death), ``corrupt`` (the site substitutes
  garbage data), or ``disconnect`` (raise ``ConnectionResetError`` —
  for socket I/O sites);
* params: ``times=N`` fires only the first N hits (default:
  unlimited), ``after=N`` skips the first N hits, ``secs=S`` sets the
  hang duration (default 30).

Arms count down under a lock, so concurrent workers never double-fire
a ``times=1`` arm.  The registry costs one dict lookup per checkpoint
when armed and a single attribute read when not.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

#: Instrumented checkpoints.  Keep in sync with the DESIGN fault table.
SITE_CACHE_LOAD = "cache.disk.load"
SITE_MODULE_CACHE_LOAD = "cache.module.load"
SITE_MODULE_IFACE = "cache.module.iface"
SITE_WORKER_EXECUTE = "worker.execute"
SITE_SOCKET_READ = "socket.read"
SITE_SOCKET_WRITE = "socket.write"

MODES = ("raise", "hang", "crash", "corrupt", "disconnect")


class FaultSpecError(ValueError):
    """A malformed ``MAYA_FAULTS`` spec."""


class InjectedFault(RuntimeError):
    """An injected ``raise``-mode fault (a recoverable internal error)."""

    def __init__(self, site: str):
        super().__init__(f"injected fault at {site}")
        self.site = site


class WorkerCrash(BaseException):
    """An injected hard worker death.

    Deliberately *not* an ``Exception``: ordinary recovery layers
    (Mayan error conversion, per-member recovery, the worker's own
    request handler) must not absorb it — only the worker pool's
    crash-containment boundary may."""

    def __init__(self, site: str):
        super().__init__(f"injected worker crash at {site}")
        self.site = site


class _Arm:
    """One armed fault: a site, a mode, and firing bookkeeping."""

    __slots__ = ("site", "mode", "secs", "_skip", "_remaining", "fired")

    def __init__(self, site: str, mode: str, secs: float = 30.0,
                 times: Optional[int] = None, after: int = 0):
        self.site = site
        self.mode = mode
        self.secs = secs
        self._skip = after
        self._remaining = times
        self.fired = 0

    @property
    def times(self) -> Optional[int]:
        """Firings left (None = unlimited)."""
        return self._remaining

    @property
    def after(self) -> int:
        """Hits still to be skipped before this arm fires."""
        return self._skip

    def take(self) -> bool:
        """Consume one firing (call with the plan lock held)."""
        if self._skip > 0:
            self._skip -= 1
            return False
        if self._remaining is not None:
            if self._remaining <= 0:
                return False
            self._remaining -= 1
        self.fired += 1
        return True

    def __repr__(self) -> str:
        return (f"<fault {self.site}:{self.mode} fired={self.fired} "
                f"remaining={self._remaining}>")


def _parse_arm(text: str) -> _Arm:
    fields = [f for f in text.strip().split(":") if f]
    if len(fields) < 2:
        raise FaultSpecError(
            f"fault arm {text!r} must be site:mode[:key=value ...]")
    site, mode, params = fields[0], fields[1], fields[2:]
    if mode not in MODES:
        raise FaultSpecError(
            f"unknown fault mode {mode!r} in {text!r} "
            f"(expected one of {', '.join(MODES)})")
    kwargs: Dict[str, object] = {}
    for param in params:
        key, sep, value = param.partition("=")
        if not sep:
            raise FaultSpecError(f"fault param {param!r} must be key=value")
        try:
            if key == "secs":
                kwargs["secs"] = float(value)
            elif key == "times":
                kwargs["times"] = int(value)
            elif key == "after":
                kwargs["after"] = int(value)
            else:
                raise FaultSpecError(
                    f"unknown fault param {key!r} in {text!r}")
        except ValueError as error:
            if isinstance(error, FaultSpecError):
                raise
            raise FaultSpecError(
                f"bad value for {key!r} in {text!r}") from None
    return _Arm(site, mode, **kwargs)


class FaultPlan:
    """The parsed arms of one ``MAYA_FAULTS`` spec."""

    def __init__(self, spec: str = ""):
        self.spec = spec or ""
        self._lock = threading.Lock()
        self._arms: Dict[str, List[_Arm]] = {}
        for chunk in self.spec.split(","):
            if chunk.strip():
                arm = _parse_arm(chunk)
                self._arms.setdefault(arm.site, []).append(arm)

    @classmethod
    def from_environment(cls) -> "FaultPlan":
        return cls(os.environ.get("MAYA_FAULTS", ""))

    @property
    def arms(self) -> List[_Arm]:
        """Every armed fault, grouped by site in spec order."""
        return [arm for arms in self._arms.values() for arm in arms]

    def __bool__(self) -> bool:
        return bool(self._arms)

    def _fire(self, site: str, modes: tuple) -> Optional[_Arm]:
        arms = self._arms.get(site)
        if not arms:
            return None
        with self._lock:
            for arm in arms:
                if arm.mode in modes and arm.take():
                    return arm
        return None

    def fired(self, site: str) -> int:
        """Total firings at a site (all modes) — for assertions."""
        return sum(arm.fired for arm in self._arms.get(site, ()))


#: The process-wide active plan.  Never None; an empty plan is inert.
_active: FaultPlan = FaultPlan(os.environ.get("MAYA_FAULTS", ""))


def configure(spec: Optional[str]) -> FaultPlan:
    """Install (and return) a fresh plan parsed from ``spec``."""
    global _active
    _active = FaultPlan(spec or "")
    return _active


def reset() -> None:
    """Disarm every fault."""
    configure("")


def active_plan() -> FaultPlan:
    return _active


def check(site: str) -> None:
    """The checkpoint: raise/hang/crash/disconnect if ``site`` is armed.

    ``corrupt`` arms are never fired here — sites that can substitute
    garbage data poll :func:`corrupting` instead."""
    plan = _active
    if not plan:
        return
    arm = plan._fire(site, ("raise", "hang", "crash", "disconnect"))
    if arm is None:
        return
    if arm.mode == "raise":
        raise InjectedFault(site)
    if arm.mode == "crash":
        raise WorkerCrash(site)
    if arm.mode == "disconnect":
        raise ConnectionResetError(f"injected disconnect at {site}")
    time.sleep(arm.secs)


def corrupting(site: str) -> bool:
    """True when a ``corrupt`` arm fires at ``site`` (consumes one)."""
    plan = _active
    if not plan:
        return False
    return plan._fire(site, ("corrupt",)) is not None
