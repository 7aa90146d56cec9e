"""The process-state registry: every process-wide mutable, in one place.

The simulator is designed so that a run is a pure function of its
``SystemConfig`` — but a handful of process-wide knobs necessarily live
outside any one run: the engine hook slots (``tracing.HOOKS``), the
default watchdog limit (``clock._DEFAULT_MAX_CYCLES``) and caches such
as the workload trace memo (``workloads.spec_like._TRACE_MEMO``).  Left
unmanaged, that state makes *worker processes diverge from serial
runs*: a forked worker inherits whatever the parent had armed or
cached, a spawned worker starts pristine, and neither matches a fresh
interpreter unless someone resets everything by hand.

This module is that someone.  Each owner of process-wide mutable state
registers a :class:`StateSlot` at import time — a ``snapshot`` callable
returning a cheap, equality-comparable summary, and a ``reset``
callable restoring the import-time value.  The harness then has three
levers:

* :func:`snapshot_all` — summarise every slot (divergence detection:
  compare a worker's snapshot to a fresh process's).
* :func:`reset_all` — restore every slot to its import-time value, so
  an in-process rerun is byte-identical to a fresh-process run
  (``tests/test_process_state.py`` proves this against a real
  subprocess).
* :func:`fork_guard` — the ``multiprocessing`` worker initializer:
  resets everything, making worker spawn deterministic by construction
  (pass it as ``Pool(initializer=process_state.fork_guard)``).

simlint's SL007 closes the loop statically: any module-level mutable in
a ranked sim layer that is mutated from function scope must carry a
``register()`` call naming it, so unregistered process state cannot be
added without failing lint.  Registration names are the full dotted
path of the global (``"repro.engine.tracing.HOOKS"``), which is what
SL007 matches against.

This registry is itself process-wide mutable state — the one module
SL007 exempts, for the same reason the baseline file is not itself
baselined.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple


class ProcessStateError(RuntimeError):
    """Raised on conflicting or unknown slot registrations."""


class StateSlot:
    """One registered piece of process-wide mutable state."""

    __slots__ = ("name", "snapshot", "reset")

    def __init__(self, name: str, snapshot: Callable[[], Any],
                 reset: Callable[[], None]) -> None:
        self.name = name
        self.snapshot = snapshot
        self.reset = reset

    def __repr__(self) -> str:
        return f"StateSlot({self.name!r})"


#: The registry itself.  Keyed by the dotted path of the global each
#: slot manages; insertion order is registration (= import) order,
#: which is what makes reset_all deterministic.
_SLOTS: Dict[str, StateSlot] = {}


def register(name: str, *, snapshot: Callable[[], Any],
             reset: Callable[[], None], replace: bool = False) -> StateSlot:
    """Register process-wide mutable state *name* (its dotted path).

    *snapshot* returns a cheap, equality-comparable summary of the
    current value; *reset* restores the import-time value.  Double
    registration raises :class:`ProcessStateError` unless *replace* is
    set (module reloads in tests).
    """
    if not name or "." not in name:
        raise ProcessStateError(
            f"state name {name!r} must be the dotted path of the global "
            f"(e.g. 'repro.engine.tracing.HOOKS')")
    if name in _SLOTS and not replace:
        raise ProcessStateError(
            f"process state {name!r} is already registered; pass "
            f"replace=True only when re-importing its owner module")
    slot = StateSlot(name, snapshot, reset)
    _SLOTS[name] = slot
    return slot


def registered() -> Tuple[str, ...]:
    """The dotted names of every registered slot, registration order."""
    return tuple(_SLOTS)


def snapshot(name: str) -> Any:
    """Snapshot one slot by dotted name."""
    try:
        slot = _SLOTS[name]
    except KeyError:
        raise ProcessStateError(
            f"no process state registered under {name!r}; "
            f"known: {', '.join(_SLOTS) or 'none'}") from None
    return slot.snapshot()


def snapshot_all() -> Dict[str, Any]:
    """Summarise every slot — compare across processes to spot drift."""
    return {name: slot.snapshot() for name, slot in _SLOTS.items()}


def reset(name: str) -> None:
    """Reset one slot by dotted name to its import-time value."""
    try:
        slot = _SLOTS[name]
    except KeyError:
        raise ProcessStateError(
            f"no process state registered under {name!r}; "
            f"known: {', '.join(_SLOTS) or 'none'}") from None
    slot.reset()


def reset_all() -> None:
    """Restore every slot to its import-time value.

    After this, an in-process run is byte-identical to one in a fresh
    interpreter (the fork-readiness property the campaign fleet needs).
    """
    for slot in _SLOTS.values():
        slot.reset()


def fork_guard() -> Tuple[str, ...]:
    """Worker-process initializer: reset everything inherited on fork.

    Pass as ``multiprocessing.Pool(initializer=process_state.fork_guard)``
    (it also works after ``fork`` start-method inheritance and as a
    belt-and-braces call under ``spawn``).  Returns the names it reset
    so callers can log coverage.
    """
    reset_all()
    return registered()
