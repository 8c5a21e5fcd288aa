"""The Cable verb table: every verb both front ends share, defined once.

The REPL (:mod:`repro.cable.cli`) and the HTTP service
(:mod:`repro.service.api`) offer the same Cable verbs.  Each is one
:class:`Verb` in :data:`VERBS`: its argument schema, one handler over
the focus stack (``stack[0]`` is the root session, ``stack[-1]`` the
innermost open focus, which the verbs act on) that returns the JSON
result the service sends, and the REPL's text rendering of that result.

The front ends only turn their input into raw argument values — REPL
words or a JSON payload — and :func:`check_args` validates both the
same way, so a bad argument raises the same :class:`InputError`,
naming the argument, on either side.  Both also open sessions with
:func:`create_session`, which parses trace texts as ``addtraces``
does: a malformed trace raises an :class:`InputError` naming its index.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.cable.session import CableSession, Selection, SelectionError
from repro.cable.views import ConceptState, ConceptSummary
from repro.cable.views import render_lattice, render_lattice_tree
from repro.core.trace_clustering import cluster_traces
from repro.fa.automaton import FA
from repro.fa.serialization import fa_from_text
from repro.fa.templates import name_projection_fa, seed_order_fa, unordered_fa
from repro.lang.traces import Trace, parse_trace
from repro.learners.sk_strings import learn_sk_strings
from repro.parallel.pool import FAULT_MODES
from repro.robustness.budget import Budget
from repro.robustness.errors import InputError

#: The default of an argument that must be given.
REQUIRED = object()

#: The templates :func:`template_fa` builds (Section 4.1's Focus FAs).
TEMPLATES = ("unordered", "seed", "name", "fa", "regex")

Stack = list[CableSession]
Result = dict[str, Any]


def parse_selection(raw: Any, default: str = "all") -> Selection:
    """A selection from its text form: ``"all"``, ``"unlabeled"``, or
    ``"=LABEL"`` (``None`` gives ``default``)."""
    if raw is None:
        return default
    if raw in ("all", "unlabeled"):
        return raw
    if isinstance(raw, str) and raw.startswith("="):
        return ("label", raw[1:])
    raise SelectionError(f"bad selection {raw!r} (use all|unlabeled|=LABEL)")


def parse_budget(raw: Any) -> Budget | None:
    """A ``Budget`` from its JSON form (``None`` passes through)."""
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise InputError(
            "budget must be an object with wall_seconds/max_concepts/"
            "max_objects",
            budget=repr(raw),
        )
    allowed = {"wall_seconds", "max_concepts", "max_objects"}
    unknown = set(raw) - allowed
    if unknown:
        raise InputError(
            "unknown budget field(s)", fields=sorted(unknown)
        )
    try:
        return Budget(**{k: raw[k] for k in allowed if k in raw})
    except ValueError as exc:
        raise InputError("bad budget", reason=str(exc)) from exc


def template_fa(symbols: Sequence[str], template: str, arg: str | None) -> FA:
    """The reference FA of a Focus/refine template over ``symbols``.

    ``arg`` is the seed symbol (``seed``), the variable (``name``), FA
    text (``fa``) or a regular expression (``regex``).
    """
    if template == "unordered":
        return unordered_fa(symbols)
    if template not in TEMPLATES:
        raise InputError(
            "unknown template", argument="template", template=template
        )
    if not arg:
        raise InputError(
            f"template {template!r} needs 'arg'", argument="arg", template=template
        )
    if template == "seed":
        return seed_order_fa(symbols, arg)
    if template == "name":
        return name_projection_fa(symbols, arg)
    if template == "fa":
        return fa_from_text(arg)
    from repro.fa.regex import compile_regex

    return compile_regex(arg)


def _parse_traces(
    texts: Sequence[Trace | str], prefix: str = "t", start: int = 0
) -> list[Trace]:
    """Parse trace texts with ids ``<prefix><start + i>``, names standardized.

    ``Trace`` objects are taken as they are.  Names become ``X, Y, ...``
    by first appearance, as the miner front end and the verifier both
    do, so traces differing only in concrete object ids form one class.
    A malformed text raises :class:`InputError` naming its index.
    """
    traces = []
    for i, text in enumerate(texts):
        if isinstance(text, Trace):
            trace = text
        else:
            try:
                trace = parse_trace(text, trace_id=f"{prefix}{start + i}")
            except ValueError as exc:
                raise InputError(str(exc), trace=i, text=text) from None
        traces.append(trace.standardize_names())
    return traces


def create_session(
    traces: Sequence[Trace | str],
    fa_text: str | None = None,
    *,
    budget: Budget | None = None,
    jobs: int | None = None,
    retry: int | None = None,
    task_timeout: float | None = None,
    on_fault: str = "raise",
) -> CableSession:
    """A new session clustering ``traces``: the REPL's and the service's
    ``create``.

    Texts are parsed with ids ``t<i>``.  Without ``fa_text`` the
    reference FA is learned from the traces with sk-strings (k=2,
    s=1.0), the miner-FA default of Section 2.2.  ``budget`` and
    ``task_timeout`` bound this clustering; ``jobs``/``retry``/
    ``on_fault`` supervise it and stick to the session for later
    ``addtraces`` updates.
    """
    parsed = _parse_traces(traces)
    if not parsed:
        raise InputError("a session needs at least one trace")
    if fa_text is not None:
        reference = fa_from_text(fa_text)
    else:
        reference = learn_sk_strings(parsed, k=2, s=1.0).fa
    clustering = cluster_traces(
        parsed,
        reference,
        budget=budget,
        jobs=jobs,
        retry=retry,
        task_timeout=task_timeout,
        on_fault=on_fault,
    )
    return CableSession(clustering, jobs=jobs, retries=retry, on_fault=on_fault)


def _added_traces(session: CableSession, texts: Sequence[str]) -> list[Trace]:
    """Parse new trace texts with ids unique for the session's whole life.

    Ids continue ``added<N>`` past the highest one among the session's
    members, so they never collide — not across calls, not with traces
    that joined existing classes, and not after a save and reload.
    """
    used = [
        int(t.trace_id[5:])
        for members in session.clustering.class_members
        for t in members
        if t.trace_id.startswith("added") and t.trace_id[5:].isdigit()
    ]
    return _parse_traces(texts, "added", max(used, default=-1) + 1)


# --------------------------------------------------------------------- #
# the schema
# --------------------------------------------------------------------- #


def _is_int(raw: Any) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool)


def _is_word(raw: Any) -> bool:
    return isinstance(raw, str) and bool(raw)


def _checked(ok: Callable[[Any], bool], what: str) -> Callable[[str, Any], Any]:
    """A check that passes values ``ok`` accepts and names the rest."""

    def check(name: str, raw: Any) -> Any:
        if not ok(raw):
            raise InputError(f"'{name}' must be {what}", argument=name, value=raw)
        return raw

    return check


#: Argument kind → check of its raw value (the default when missing).
CHECKS: dict[str, Callable[[str, Any], Any]] = {
    "concept": _checked(_is_int, "an integer"),
    "count": _checked(lambda v: _is_int(v) and v >= 1, "a positive integer"),
    "word": _checked(_is_word, "a non-empty string"),
    "text": _checked(lambda v: v is None or _is_word(v), "a non-empty string"),
    "selection": lambda name, raw: parse_selection(raw),
    "traces": _checked(
        lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v),
        "a list of trace strings",
    ),
    "flag": lambda name, raw: bool(raw),
    "bool": _checked(lambda v: isinstance(v, bool), "true or false"),
    "budget": lambda name, raw: parse_budget(raw),
    "timeout": _checked(
        lambda v: v is None or (isinstance(v, (int, float)) and v > 0),
        "a positive number",
    ),
    "on_fault": _checked(
        lambda v: v is None or v in FAULT_MODES, "one of: " + ", ".join(FAULT_MODES)
    ),
}

#: Argument kind → its placeholder in the REPL's ``help`` (else the
#: argument's name).
_WORDS = {"concept": "N", "count": "N", "text": "ARG...", "traces": "FILE",
          "selection": "all|unlabeled|=LABEL"}


@dataclass(frozen=True)
class Arg:
    """One verb argument.

    ``name`` is its JSON payload key; the REPL takes the arguments as
    words in schema order, an optional ``text`` argument taking all
    remaining words and a ``flag`` being set when its word is its name.
    ``only`` limits an argument to one front end (``"repl"`` or
    ``"http"``).
    """

    name: str
    kind: str
    default: Any = REQUIRED
    only: str | None = None

    def usage(self) -> str:
        word = _WORDS.get(self.kind, self.name.upper())
        if self.kind == "flag":
            word = self.name
        return word if self.default is REQUIRED else f"[{word}]"


def check_args(verb: str, schema: Sequence[Arg], raw: dict[str, Any]) -> Result:
    """Validate ``raw`` against ``schema``; missing values take defaults."""
    args: Result = {}
    for arg in schema:
        value = raw.get(arg.name)
        if value is None:
            value = arg.default
        if value is REQUIRED:
            raise InputError(f"{verb} needs '{arg.name}'", argument=arg.name)
        args[arg.name] = CHECKS[arg.kind](arg.name, value)
    return args


@dataclass(frozen=True)
class Verb:
    """One Cable verb: schema, handler over the focus stack, rendering.

    ``handler(stack, **args)`` returns the JSON-serializable result;
    ``text(result, args)`` is the REPL's rendering of it.
    """

    name: str
    summary: str
    args: tuple[Arg, ...]
    handler: Callable[..., Result]
    text: Callable[[Result, Result], str]
    #: The REPL's word for the verb when it differs from ``name``.
    repl_name: str | None = None

    def usage(self) -> str:
        words = [self.repl_name or self.name]
        return " ".join(words + [a.usage() for a in self.args if a.only != "http"])


#: The shared verbs by their HTTP name, in ``help`` order.
VERBS: dict[str, Verb] = {}


def verb(
    name: str,
    summary: str,
    *args: Arg,
    text: Callable[[Result, Result], str],
    repl_name: str | None = None,
    table: dict[str, Verb] = VERBS,
) -> Callable[[Callable[..., Result]], Callable[..., Result]]:
    """Register the decorated handler as verb ``name`` in ``table``."""

    def register(handler: Callable[..., Result]) -> Callable[..., Result]:
        table[name] = Verb(name, summary, args, handler, text, repl_name)
        return handler

    return register


#: The per-request supervision knobs of the clustering fan-outs.
SUPERVISION = (
    Arg("budget", "budget", None, only="http"),
    Arg("task_timeout", "timeout", None, only="http"),
    Arg("on_fault", "on_fault", None, only="http"),
)
_CONCEPT = Arg("concept", "concept")
#: A template name and its argument, as :func:`template_fa` takes them.
TEMPLATE = (Arg("template", "word", "unordered"), Arg("arg", "text", None))
_ALL = Arg("which", "selection", "all")


def _indented(lines: Sequence[str]) -> str:
    return "\n".join(f"  {line}" for line in lines)


# --------------------------------------------------------------------- #
# the verbs
# --------------------------------------------------------------------- #


@verb("lattice", "show the colored lattice (tree: by depth)",
      Arg("tree", "flag", False, only="repl"), text=lambda r, a: r["rendered"])
def _lattice(stack: Stack, tree: bool) -> Result:
    session = stack[-1]
    concepts = [
        {
            "concept": c,
            "state": session.concept_state(c).name,
            "extent": len(session.lattice.extent(c)),
        }
        for c in session.lattice
    ]
    render = render_lattice_tree if tree else render_lattice
    return {
        "concepts": concepts,
        "rendered": render(session),
        "focused": len(stack) > 1,
    }


def _inspect_text(result: Result, args: Result) -> str:
    fields = {k: v for k, v in result.items() if k != "color"}
    fields["state"] = ConceptState[result["state"]]
    return ConceptSummary(**fields).render()


@verb("inspect", "inspect a concept (counted operation)", _CONCEPT,
      text=_inspect_text)
def _inspect(stack: Stack, concept: int) -> Result:
    summary = stack[-1].inspect(concept)
    return {
        "concept": summary.concept,
        "state": summary.state.name,
        "color": summary.state.color,
        "num_traces": summary.num_traces,
        "num_unlabeled": summary.num_unlabeled,
        "labels_present": sorted(summary.labels_present),
        "similarity": summary.similarity,
        "transitions": list(summary.transitions),
        "children": sorted(summary.children),
        "parents": sorted(summary.parents),
    }


@verb("fa", "show the FA of the selected traces", _CONCEPT, _ALL,
      text=lambda r, a: r["fa"])
def _fa(stack: Stack, concept: int, which: Selection) -> Result:
    return {"fa": stack[-1].show_fa(concept, which).pretty()}


@verb("transitions", "show the transitions the selection shares", _CONCEPT,
      _ALL, text=lambda r, a: _indented(r["transitions"]), repl_name="trans")
def _transitions(stack: Stack, concept: int, which: Selection) -> Result:
    return {"transitions": stack[-1].show_transitions(concept, which)}


@verb("traces", "show the selected traces", _CONCEPT, _ALL,
      text=lambda r, a: _indented(r["traces"]))
def _traces(stack: Stack, concept: int, which: Selection) -> Result:
    return {"traces": [str(t) for t in stack[-1].show_traces(concept, which)]}


@verb("label", "label the selected traces (counted operation)",
      _CONCEPT, Arg("label", "word"), Arg("which", "selection", "unlabeled"),
      text=lambda r, a: f"labeled {r['labeled']} trace class(es) {a['label']!r}")
def _label(stack: Stack, concept: int, label: str, which: Selection) -> Result:
    labeled = stack[-1].label_traces(concept, label, which)
    return {"labeled": labeled, "done": stack[-1].done()}


def _focus_text(result: Result, args: Result) -> str:
    lines = []
    if result["unclustered"]:
        lines.append(
            f"note: {result['unclustered']} trace class(es) rejected "
            "by the focus FA stay with the parent session"
        )
    lines.append(
        f"focused on concept {args['concept']} "
        f"({result['classes']} trace classes, {result['concepts']} concepts)"
    )
    return "\n".join(lines)


@verb("focus", "re-cluster under unordered, seed SYM, name VAR, fa FILE or regex RE",
      _CONCEPT, *TEMPLATE, text=_focus_text)
def _focus(stack: Stack, concept: int, template: str, arg: str | None) -> Result:
    session = stack[-1]
    symbols = sorted({str(e) for t in session.show_traces(concept) for e in t})
    focused = session.focus(concept, template_fa(symbols, template, arg))
    stack.append(focused)
    return {
        "depth": len(stack) - 1,
        "classes": focused.clustering.num_objects,
        "concepts": len(focused.lattice),
        "unclustered": len(focused.unclustered),
    }


@verb("endfocus", "merge the focus session back",
      text=lambda r, a: f"focus ended; {r['merged']} label(s) merged back")
def _endfocus(stack: Stack) -> Result:
    if len(stack) == 1:
        raise InputError("not in a focus session")
    merged = stack.pop().end()  # type: ignore[attr-defined]
    return {"merged": merged, "depth": len(stack) - 1}


def _rank_text(result: Result, args: Result) -> str:
    lines = ["most suspicious concepts (deviance score):"]
    lines += [
        f"  #{r['concept']:<4d} score={r['score']:.3f} "
        f"traces={r['traces']:<4d} [{r['state']}]"
        for r in result["ranked"]
    ]
    return "\n".join(lines)


@verb("rank", "the N (default 5) most suspicious concepts",
      Arg("count", "count", 5), text=_rank_text)
def _rank(stack: Stack, count: int) -> Result:
    from repro.rank.scores import concept_scores

    session = stack[-1]
    scores = concept_scores(session.clustering)
    lattice = session.lattice
    ranked = sorted(
        (c for c in lattice if lattice.extent(c)),
        key=lambda c: (-scores[c], c),
    )
    return {
        "ranked": [
            {
                "concept": c,
                "score": scores[c],
                "traces": len(lattice.extent(c)),
                "state": session.concept_state(c).name,
            }
            for c in ranked[:count]
        ]
    }


def _flow_text(result: Result, args: Result) -> str:
    from repro.analysis.diagnostics import Diagnostic, LintReport, Location

    report = result["flow"]["report"]
    diagnostics = tuple(
        Diagnostic(d["code"], d["severity"], Location(**d["location"]), d["message"],
                   d.get("suggestion", ""), d.get("witness", ""))
        for d in report["diagnostics"]
    )
    lines = [LintReport(report["target"], diagnostics).render_text()]
    if result["conflicts"]:
        lines.append(
            f"{result['conflicts']} labeling conflict(s) — "
            "the label store kept whichever act came last"
        )
    return "\n".join(lines)


@verb("flow", "label-flow analysis of the labeling acts", SUPERVISION[0],
      text=_flow_text)
def _flow(stack: Stack, budget: Budget | None) -> Result:
    from repro.analysis.semantic import label_flow_for_session

    result = label_flow_for_session(stack[-1], budget=budget)
    return {"conflicts": len(result.conflicts), "flow": result.to_dict()}


@verb("addtraces", "fold new traces (one per line) in",
      Arg("traces", "traces"), *SUPERVISION,
      text=lambda r, a: f"added {len(a['traces'])} trace(s): {r['added']} new "
      f"class(es), lattice now has {r['concepts']} concepts")
def _addtraces(
    stack: Stack,
    traces: list[str],
    budget: Budget | None,
    task_timeout: float | None,
    on_fault: str | None,
) -> Result:
    if len(stack) > 1:
        raise InputError("end the focus session before adding traces")
    session = stack[0]
    added = session.add_traces(
        _added_traces(session, traces),
        budget=budget,
        task_timeout=task_timeout,
        on_fault=on_fault,
    )
    return {
        "added": added,
        "classes": session.clustering.num_objects,
        "concepts": len(session.lattice),
    }


def _state_text(result: Result, args: Result) -> str:
    ops = result["operations"]
    return (
        f"operations: {ops['total']} "
        f"(inspect {ops['inspections']}, label {ops['labelings']}); "
        f"{result['unlabeled']} trace class(es) unlabeled"
    )


@verb("state", "operation counts + labeling progress", text=_state_text)
def _state(stack: Stack) -> Result:
    session = stack[-1]
    return {
        "operations": {
            "total": session.ops.total,
            "inspections": session.ops.inspections,
            "labelings": session.ops.labelings,
        },
        "unlabeled": len(session.labels.unlabeled()),
        "classes": session.clustering.num_objects,
        "concepts": len(session.lattice),
        "done": session.done(),
        "focused": len(stack) > 1,
    }


@verb("good", "the FA learned from traces labeled LABEL", Arg("label", "word", "good"),
      text=lambda r, a: r["fa"])
def _good(stack: Stack, label: str) -> Result:
    return {"fa": stack[-1].check_labeling(label).pretty()}
