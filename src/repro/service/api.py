"""The Cable verb set as JSON request handlers.

:class:`SessionService` translates between JSON payloads and the
:class:`~repro.cable.session.CableSession` API.  The Cable verbs come
from the verb table the REPL also runs (:mod:`repro.cable.verbs`); the
service adds ``save`` and ``suspend`` (session persistence) and the
spec-level ``diff``.  It is transport-agnostic: the HTTP server calls
:meth:`handle_verb` from a request thread, the tests call it directly,
and every verb runs inside :meth:`SessionManager.run` so one session's
verbs serialize while distinct sessions proceed in parallel.

Per-request supervision rides in the payload::

    {"concept": 3, "label": "good",
     "budget": {"wall_seconds": 5.0, "max_concepts": 20000},
     "task_timeout": 2.0, "on_fault": "quarantine"}

and is plumbed through to the clustering fan-outs, so one runaway
request degrades (``BudgetExceeded`` with a resumable checkpoint)
instead of wedging the server.
"""

from __future__ import annotations

from typing import Any

from repro import obs
from repro.cable import verbs
from repro.cable.persist import save_session
from repro.fa.serialization import fa_from_text
from repro.robustness.errors import InputError
from repro.service.lifecycle import SessionRecord
from repro.service.manager import SessionManager

#: The verbs :meth:`SessionService.handle_verb` dispatches: the shared
#: Cable verbs plus the service's own ``save`` and ``suspend``.
VERBS = (*verbs.VERBS, "save", "suspend")

#: The payload schemas of the service's own endpoints.
_SESSION = verbs.Arg("session", "text", None)
_CREATE = (verbs.Arg("traces", "traces"), verbs.Arg("fa", "text", None), _SESSION,
           *verbs.SUPERVISION)
_ATTACH = (verbs.Arg("path", "word"), _SESSION)
_SAVE = (verbs.Arg("path", "text", None),)
_DIFF = (verbs.Arg("no_dead", "bool", False),)


class SessionService:
    """The verb layer: JSON payloads in, JSON-serializable dicts out."""

    def __init__(self, manager: SessionManager) -> None:
        self.manager = manager

    # ------------------------------------------------------------------ #
    # session management verbs
    # ------------------------------------------------------------------ #

    def create(self, payload: dict[str, Any]) -> dict[str, Any]:
        """``POST /sessions`` — cluster traces into a new session."""
        args = verbs.check_args("create", _CREATE, payload)
        record = self.manager.create(
            args.pop("traces"),
            args.pop("fa"),
            session_id=args.pop("session"),
            **args,
        )
        return self.manager.info(record.session_id)

    def attach(self, payload: dict[str, Any]) -> dict[str, Any]:
        """``POST /sessions/attach`` — load a persisted session file.

        The response carries any backup-recovery ``warnings`` — a
        server attaching sessions must see them in the JSON, not on a
        stderr nobody reads.
        """
        args = verbs.check_args("attach", _ATTACH, payload)
        record = self.manager.attach(args["path"], session_id=args["session"])
        return self.manager.info(record.session_id)

    def list_sessions(self) -> dict[str, Any]:
        return {"sessions": self.manager.list_sessions()}

    def info(self, session_id: str) -> dict[str, Any]:
        return self.manager.info(session_id)

    def kill(self, session_id: str) -> dict[str, Any]:
        self.manager.kill(session_id)
        return {"session": session_id, "state": "dead"}

    # ------------------------------------------------------------------ #
    # Cable verbs
    # ------------------------------------------------------------------ #

    def handle_verb(
        self, session_id: str, verb: str, payload: dict[str, Any]
    ) -> dict[str, Any]:
        """Dispatch one Cable verb inside the session's lock.

        Shared verbs come from :data:`repro.cable.verbs.VERBS`; their
        arguments are checked against the same schema the REPL uses.
        """
        if verb not in VERBS:
            raise InputError(
                "unknown verb", verb=verb, known=list(VERBS)
            )
        with obs.span("service.verb", verb=verb, session=session_id):
            if verb == "suspend":
                # Suspension takes the store's eviction path, not the
                # run() path (run would mark the session busy).
                suspended = self.manager.suspend(session_id)
                return {"session": session_id, "suspended": suspended}
            if verb == "save":
                return self.manager.run(
                    session_id, lambda record: self._save(record, payload)
                )
            shared = verbs.VERBS[verb]
            raw = {a.name: payload.get(a.name) for a in shared.args if a.only != "repl"}
            return self.manager.run(
                session_id,
                lambda record: shared.handler(
                    record.stack, **verbs.check_args(verb, shared.args, raw)
                ),
            )

    def _save(
        self, record: SessionRecord, payload: dict[str, Any]
    ) -> dict[str, Any]:
        if record.focused:
            raise InputError(
                "end the focus session before saving",
                session=record.session_id,
            )
        path = verbs.check_args("save", _SAVE, payload)["path"]
        if path is None:
            target = record.path
        else:
            # Client-supplied targets go through path confinement: on a
            # non-loopback bind they must stay inside the store dir.
            target = self.manager.resolve_user_path(path)
        save_session(record.session, target)
        return {"saved": str(target)}

    # ------------------------------------------------------------------ #
    # spec-level diff (no session involved)
    # ------------------------------------------------------------------ #

    def diff(self, payload: dict[str, Any]) -> dict[str, Any]:
        """``POST /diff`` — language-level spec comparison.

        Operands are catalog spec names (``{"left": "XtFree"}``) or
        inline FA text (``{"left_text": "..."}``).
        """
        from repro.analysis.semantic import diff_fas

        with obs.span("service.diff"):
            no_dead = verbs.check_args("diff", _DIFF, payload)["no_dead"]
            left_name, left_fa = _diff_operand(payload, "left")
            right_name, right_fa = _diff_operand(payload, "right")
            diff = diff_fas(
                left_fa,
                right_fa,
                left_name,
                right_name,
                dead_transitions=not no_dead,
            )
            return {
                "diff": diff.to_dict(),
                "summary": diff.report.counts(),
            }


def _diff_operand(payload: dict[str, Any], side: str) -> tuple[str, Any]:
    """Resolve one diff operand: catalog name or inline FA text."""
    name = payload.get(side)
    text = payload.get(f"{side}_text")
    if isinstance(text, str) and text:
        return (name or f"<{side}>", fa_from_text(text))
    if isinstance(name, str) and name:
        from repro.workloads.specs_catalog import spec_by_name

        return (name, spec_by_name(name).debugged_fa())
    raise InputError(
        f"diff needs '{side}' (catalog spec name) or '{side}_text' (FA text)"
    )


__all__ = [
    "SessionService",
    "VERBS",
]
