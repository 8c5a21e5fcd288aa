"""A scriptable command-line interface for Cable.

The original Cable was a Dotty GUI; this CLI exposes the same operations
as line commands so sessions can be run interactively or scripted (and
tested).  Start it with a trace file (one trace per line, events separated
by ``;``) and optionally a reference-FA file in the format of
:mod:`repro.fa.serialization`; without an FA, one is learned from the
traces with sk-strings — the miner-FA default of Section 2.2.

Type ``help`` for the commands; the list is generated from the verb
tables, so it cannot drift from what the CLI accepts.  The Cable verbs
proper (:data:`repro.cable.verbs.VERBS`) are shared with the HTTP
service; ``refine``, ``undo``, ``dot``, ``save`` and ``savesession``
are CLI-only.  Restore a saved session by starting the CLI with
``--session FILE``.

``cable lint ...`` dispatches to the static spec-lint subcommand
(:mod:`repro.analysis.cli`): lint catalog specifications or FA files
without running the dynamic pipeline (``--semantic`` adds the SEM/LBL
language-level passes).  ``cable diff SPEC-A SPEC-B`` compares two
specifications at the language level and prints witness traces for each
disagreement direction (same module).  ``cable profile ...`` runs one
catalog spec (or the ``animals`` example) under full tracing and prints
a phase-time/metric table (:mod:`repro.cable.profile`).  ``cable
selfcheck`` turns the linter on the repo itself: the CC conformance
passes (:mod:`repro.analysis.conformance`) scan the source tree for the
staleness/race/plumbing bug classes and gate on
``tools/baselines/conformance.json``.  ``cable serve`` boots the
multi-tenant HTTP server (:mod:`repro.service`).

``--json`` (before the positional arguments) makes the startup banner —
including any backup-recovery warnings from ``--session FILE`` — a
single machine-readable JSON line on stdout.

Observability: ``--trace FILE`` / ``--metrics FILE`` / ``--chrome FILE``
before the positional arguments enable :mod:`repro.obs` for the whole
session — every lattice build, learner run, and counted operation is
exported when the CLI exits (equivalent to setting ``REPRO_OBS``).

Parallelism: ``--jobs N`` (also before the positional arguments) fans
the clustering relation phase out over a process pool — for the initial
build and every later ``addtraces`` — with ``0`` meaning one worker per
CPU.  See ``docs/performance.md``.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from typing import Any

from repro.cable.session import CableSession
from repro.cable.verbs import TEMPLATE, VERBS, Arg, Result, Stack, Verb
from repro.cable.verbs import check_args, create_session, template_fa, verb
from repro.cable.views import lattice_to_dot
from repro.robustness.errors import InputError, ReproError

#: The CLI-only commands, in the shape of the shared verbs.
CLI_ONLY: dict[str, Verb] = {}
_PATH = Arg("path", "word")


@verb("refine", "sharpen the lattice in place with a template FA (as focus)",
      *TEMPLATE, table=CLI_ONLY,
      text=lambda r, a: f"lattice refined: now {r['concepts']} concepts (labels kept)")
def _refine(stack: Stack, template: str, arg: str | None) -> Result:
    from repro.cable.refine import refine_session

    if len(stack) > 1:
        raise InputError("end the focus session before refining")
    reps = stack[0].clustering.representatives
    symbols = sorted({str(e) for t in reps for e in t})
    return {"concepts": refine_session(stack[0], template_fa(symbols, template, arg))}


@verb("undo", "undo the last labeling", table=CLI_ONLY,
      text=lambda r, a: "undone" if r["undone"] else "nothing to undo")
def _undo(stack: Stack) -> Result:
    return {"undone": stack[-1].labels.undo()}


@verb("dot", "write the colored lattice as Graphviz dot", _PATH, table=CLI_ONLY,
      text=lambda r, a: f"wrote {a['path']}")
def _dot(stack: Stack, path: str) -> Result:
    with open(path, "w") as fh:
        fh.write(lattice_to_dot(stack[-1]))
    return {}


@verb("save", 'write "<label>\\t<trace>" lines for all classes', _PATH,
      table=CLI_ONLY, text=lambda r, a: f"wrote {a['path']}")
def _save(stack: Stack, path: str) -> Result:
    session = stack[-1]
    with open(path, "w") as fh:
        for o, rep in enumerate(session.clustering.representatives):
            label = session.labels.label_of(o) or "-"
            fh.write(f"{label}\t{rep}\n")
    return {}


@verb("savesession", "persist the whole session as JSON", _PATH, table=CLI_ONLY,
      text=lambda r, a: f"session saved to {a['path']}")
def _savesession(stack: Stack, path: str) -> Result:
    from repro.cable.persist import save_session

    save_session(stack[-1], path)
    return {}


#: The CLI's commands by the word that runs them.
COMMANDS = {v.repl_name or v.name: v for v in (*VERBS.values(), *CLI_ONLY.values())}
HELP = "Commands:\n" + "\n".join(
    f"    {v.usage():<38}{v.summary}" for v in COMMANDS.values()
) + "\n    help\n    quit"


def repl_args(entry: Verb, words: list[str]) -> dict[str, Any]:
    """Map command words onto ``entry``'s arguments, in schema order.

    Integers are parsed and files read here: ``addtraces FILE`` and
    ``focus N fa FILE`` name files where the service sends content.
    A word that is not an integer stays a string, for
    :func:`~repro.cable.verbs.check_args` to reject by name.
    """
    raw: dict[str, Any] = {}
    schema = [a for a in entry.args if a.only != "http"]
    for i, (arg, word) in enumerate(zip(schema, words)):
        if arg.kind == "text":
            raw[arg.name] = " ".join(words[i:])
        elif arg.kind in ("concept", "count"):
            try:
                raw[arg.name] = int(word)
            except ValueError:
                raw[arg.name] = word
        elif arg.kind == "flag":
            raw[arg.name] = word == arg.name
        elif arg.kind == "traces":
            with open(word) as fh:
                raw[arg.name] = [line.strip() for line in fh if line.strip()]
        else:
            raw[arg.name] = word
    if raw.get("template") == "fa" and raw.get("arg"):
        with open(raw["arg"]) as fh:
            raw["arg"] = fh.read()
    return raw


class CableCLI:
    """The command interpreter; one instance per top-level session."""

    def __init__(self, session: CableSession, out=None) -> None:
        self.stack: list[CableSession] = [session]
        self.out = out or sys.stdout

    @property
    def session(self) -> CableSession:
        return self.stack[-1]

    def emit(self, text: str) -> None:
        print(text, file=self.out)

    # ------------------------------------------------------------------ #

    def run_line(self, line: str) -> bool:
        """Execute one command line; returns False on ``quit``."""
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            return True
        cmd, *words = parts
        if cmd in ("quit", "exit"):
            return False
        try:
            self._dispatch(cmd, words)
        except (ReproError, ValueError, KeyError, IndexError, OSError) as exc:
            # Bad inputs (including corrupt files and over-budget builds)
            # are reported, never fatal: the session stays alive.
            self.emit(f"error: {exc}")
        return True

    def _dispatch(self, cmd: str, words: list[str]) -> None:
        if cmd == "help":
            self.emit(HELP)
            return
        entry = COMMANDS.get(cmd)
        if entry is None:
            raise InputError(f"unknown command {cmd!r} (try help)")
        args = check_args(entry.name, entry.args, repl_args(entry, words))
        text = entry.text(entry.handler(self.stack, **args), args)
        if text:
            self.emit(text)

    def run(self, lines: Iterable[str]) -> None:
        for line in lines:
            if not self.run_line(line):
                break


def build_session(
    trace_path: str,
    fa_path: str | None,
    jobs: int | None = None,
    retries: int | None = None,
    on_fault: str = "raise",
) -> CableSession:
    """Load traces (and optionally a reference FA) and build a session
    with :func:`~repro.cable.verbs.create_session`.

    ``jobs`` fans the clustering relation phase out over a process pool
    and sticks to the session for later ``addtraces`` updates;
    ``retries``/``on_fault`` supervise those fan-outs
    (``on_fault="quarantine"`` keeps the session alive when a relation
    evaluation is poisoned — the class lands in the rejected set with
    its exception chain).
    """
    with open(trace_path) as fh:
        texts = [line.strip() for line in fh if line.strip()]
    fa_text = None
    if fa_path:
        with open(fa_path) as fh:
            fa_text = fh.read()
    session = create_session(
        texts, fa_text, jobs=jobs, retry=retries, on_fault=on_fault
    )
    if session.clustering.fault_report is not None:
        print(
            f"warning: {len(session.clustering.fault_report)} trace class(es) "
            "quarantined — evaluation failed; re-run with more --retries "
            "or inspect the worker traceback",
            file=sys.stderr,
        )
    return session


def _pop_global_options(
    argv: list[str],
) -> tuple[list[str], dict[str, str], int | None, int | None, str, bool]:
    """Strip leading ``--trace/--metrics/--chrome FILE``, ``--jobs N``,
    ``--retries N``, ``--on-fault MODE`` option pairs and the bare
    ``--json`` flag; returns ``(rest, obs_paths, jobs, retries,
    on_fault, json_mode)``."""
    paths: dict[str, str] = {}
    jobs: int | None = None
    retries: int | None = None
    on_fault = "raise"
    json_mode = False
    rest = list(argv)
    option_keys = {"--trace": "trace_path", "--metrics": "metrics_path",
                   "--chrome": "chrome_path"}
    flags = ("--jobs", "--retries", "--on-fault")
    while rest and (
        rest[0] == "--json"
        or (len(rest) >= 2 and (rest[0] in option_keys or rest[0] in flags))
    ):
        if rest[0] == "--json":
            json_mode = True
            del rest[:1]
            continue
        if rest[0] == "--jobs":
            try:
                jobs = int(rest[1])
            except ValueError:
                raise InputError(
                    "--jobs expects an integer (0 = one worker per CPU)",
                    value=rest[1],
                ) from None
        elif rest[0] == "--retries":
            try:
                retries = int(rest[1])
            except ValueError:
                raise InputError(
                    "--retries expects an integer (extra attempts per task)",
                    value=rest[1],
                ) from None
            if retries < 0:
                raise InputError("--retries must be >= 0", value=retries)
        elif rest[0] == "--on-fault":
            from repro.parallel.pool import FAULT_MODES

            if rest[1] not in FAULT_MODES:
                raise InputError(
                    "--on-fault expects one of: " + ", ".join(FAULT_MODES),
                    value=rest[1],
                )
            on_fault = rest[1]
        else:
            paths[option_keys[rest[0]]] = rest[1]
        del rest[:2]
    return rest, paths, jobs, retries, on_fault, json_mode


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "lint":
        from repro.analysis.cli import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "diff":
        from repro.analysis.cli import diff_main

        return diff_main(argv[1:])
    if argv and argv[0] == "profile":
        from repro.cable.profile import profile_main

        return profile_main(argv[1:])
    if argv and argv[0] == "selfcheck":
        from repro.analysis.conformance.cli import selfcheck_main

        return selfcheck_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.service.cli import serve_main

        return serve_main(argv[1:])
    try:
        argv, obs_paths, jobs, retries, on_fault, json_mode = (
            _pop_global_options(argv)
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if obs_paths:
        from repro import obs

        obs.configure(**obs_paths)
    if not argv or argv[0] in ("-h", "--help"):
        print(
            "usage: cable [--json] [--trace F] [--metrics F] [--chrome F] "
            "[--jobs N] [--retries N] [--on-fault raise|quarantine] "
            "TRACE_FILE [FA_FILE]  |  cable --session FILE"
            "  |  cable lint ...  |  cable diff A B  |  cable profile SPEC ..."
            "  |  cable selfcheck ...  |  cable serve ...",
            file=sys.stderr,
        )
        print(__doc__, file=sys.stderr)
        print(HELP, file=sys.stderr)
        return 0 if argv else 2
    restored_from: str | None = None
    recovery_warnings: list[str] = []
    try:
        if argv[0] == "--session":
            from repro.cable.persist import load_session_with_recovery

            session, recovery_warnings = load_session_with_recovery(argv[1])
            restored_from = argv[1]
            if not json_mode:
                # JSON mode reports the warnings in the startup document
                # below — a machine attaching a session must see them on
                # stdout, not on a stderr nobody parses.
                for warning in recovery_warnings:
                    print(f"warning: {warning}", file=sys.stderr)
            session.jobs = jobs
            session.retries = retries
            session.on_fault = on_fault
        else:
            session = build_session(
                argv[0],
                argv[1] if len(argv) > 1 else None,
                jobs=jobs,
                retries=retries,
                on_fault=on_fault,
            )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cli = CableCLI(session)
    if json_mode:
        import json as _json

        cli.emit(
            _json.dumps(
                {
                    "classes": session.clustering.num_objects,
                    "concepts": len(session.lattice),
                    "restored_from": restored_from,
                    "warnings": recovery_warnings,
                }
            )
        )
    else:
        cli.emit(
            f"cable: {session.clustering.num_objects} trace classes, "
            f"{len(session.lattice)} concepts; type 'help' for commands"
        )
    try:
        cli.run(iter(sys.stdin.readline, ""))
    except KeyboardInterrupt:
        pass
    if obs_paths:
        from repro import obs

        obs.shutdown()  # flush the session's exporters now, not at exit
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
