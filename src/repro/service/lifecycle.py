"""The session lifecycle state machine of the Cable debugging server.

A served session is a long-lived resource with an explicit lifecycle —
the design follows the process-session state machine of interactive
CLI controllers (spawning → active ⇄ suspended → dead, with zombie
detection for sessions wedged mid-request):

* ``SPAWNING`` — registered in the store, clustering still building;
  the session counts toward the residency bound but serves no verbs;
* ``ACTIVE`` — resident in memory, serving requests;
* ``SUSPENDED`` — evicted to disk (crash-safe, via
  :mod:`repro.cable.persist`); transparently resumed by the next
  request that targets it;
* ``ZOMBIE`` — a request has held the session's lock longer than the
  manager's ``zombie_after`` threshold: the worker is presumed wedged
  (a runaway lattice build that escaped its budget, a hung learner).
  New requests are refused; the reaper kills it next sweep, but a
  request that does finish rehabilitates the session to ``ACTIVE``;
* ``DEAD`` — killed, reaped, or failed to spawn; terminal.

:data:`TRANSITIONS` is the whole machine; :func:`advance` is the single
mutation point, so an illegal hop (``SUSPENDED → ZOMBIE``, resurrecting
the dead) raises instead of silently corrupting the store.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.robustness.errors import ReproError

if TYPE_CHECKING:
    from repro.cable.session import CableSession


class SessionState(enum.Enum):
    """Where a served session is in its life."""

    SPAWNING = "spawning"
    ACTIVE = "active"
    SUSPENDED = "suspended"
    ZOMBIE = "zombie"
    DEAD = "dead"


#: The legal lifecycle hops.  Everything else is a bug in the manager.
TRANSITIONS: dict[SessionState, frozenset[SessionState]] = {
    SessionState.SPAWNING: frozenset(
        {SessionState.ACTIVE, SessionState.DEAD}
    ),
    SessionState.ACTIVE: frozenset(
        {SessionState.SUSPENDED, SessionState.ZOMBIE, SessionState.DEAD}
    ),
    SessionState.SUSPENDED: frozenset(
        {SessionState.ACTIVE, SessionState.DEAD}
    ),
    SessionState.ZOMBIE: frozenset(
        {SessionState.ACTIVE, SessionState.DEAD}
    ),
    SessionState.DEAD: frozenset(),
}

#: States whose session object is resident in memory (and therefore
#: counts toward the manager's ``max_sessions`` residency bound).
RESIDENT_STATES = frozenset(
    {SessionState.SPAWNING, SessionState.ACTIVE, SessionState.ZOMBIE}
)


class LifecycleError(ReproError):
    """An illegal lifecycle transition was attempted (a manager bug)."""


class StoreFull(ReproError):
    """The session store is at capacity and nothing is evictable."""


class SessionBusy(ReproError):
    """The target session's lock could not be acquired in time."""


@dataclass
class SessionRecord:
    """One served session: its state, its lock, and its bookkeeping.

    ``stack`` mirrors the Cable CLI's focus stack — ``stack[0]`` is the
    root session, later entries are open :class:`~repro.cable.focus.
    FocusSession` sub-sessions; empty while ``SUSPENDED``.  ``lock``
    serializes the Cable verbs on this session (distinct sessions run
    in parallel); the *metadata* fields (``state``, ``last_used``,
    ``busy_since``) are guarded by the manager's store lock instead, so
    listings never block behind a long-running verb.
    """

    session_id: str
    path: Path
    state: SessionState = SessionState.SPAWNING
    stack: "list[CableSession]" = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)
    created_at: float = 0.0
    last_used: float = 0.0
    #: When the in-flight request took the lock; ``None`` while idle.
    busy_since: float | None = None
    #: Recovery/resume warnings accumulated over the session's life.
    warnings: list[str] = field(default_factory=list)
    requests: int = 0

    @property
    def session(self) -> "CableSession":
        """The root Cable session (resident states only)."""
        if not self.stack:
            raise LifecycleError(
                "session is not resident",
                session=self.session_id,
                state=self.state.value,
            )
        return self.stack[0]

    @property
    def resident(self) -> bool:
        return self.state in RESIDENT_STATES

    @property
    def focused(self) -> bool:
        return len(self.stack) > 1


def advance(record: SessionRecord, to: SessionState) -> None:
    """Move ``record`` to state ``to``, enforcing :data:`TRANSITIONS`."""
    if to not in TRANSITIONS[record.state]:
        raise LifecycleError(
            "illegal session lifecycle transition",
            session=record.session_id,
            from_state=record.state.value,
            to_state=to.value,
        )
    record.state = to


__all__ = [
    "LifecycleError",
    "RESIDENT_STATES",
    "SessionBusy",
    "SessionRecord",
    "SessionState",
    "StoreFull",
    "TRANSITIONS",
    "advance",
]
