"""The shared verb table: the REPL and the HTTP service behave alike.

One scripted session runs through :class:`CableCLI` and through
:meth:`SessionService.handle_verb` on identical sessions; every REPL
line must be the text rendering of the matching JSON result, and both
sides must end in the same state.  Bad arguments raise one
:class:`InputError` naming the argument on both front ends, and a
malformed trace one naming the trace.
"""

import io
from pathlib import Path

import pytest

from repro.cable.cli import CableCLI, build_session, main
from repro.cable.persist import load_session
from repro.cable.verbs import VERBS, check_args
from repro.fa.serialization import fa_to_text
from repro.robustness.errors import InputError
from repro.service.api import VERBS as SERVICE_VERBS, SessionService
from repro.service.manager import SessionManager
from repro.service.server import error_body, status_for
from repro.workloads.stdio import reference_fa

from tests.conftest import STDIO_LABELED

TEXTS = [text for text, _ in STDIO_LABELED]

#: One trace that joins an existing class, one that opens a new one.
ADDED = [
    "popen(q1); fread(q1); pclose(q1)",
    "popen(z9); fwrite(z9); fwrite(z9); pclose(z9)",
]


class Pair:
    """The same session behind both front ends."""

    def __init__(self, tmp_path: Path) -> None:
        fa_text = fa_to_text(reference_fa())
        trace_file = tmp_path / "traces.txt"
        trace_file.write_text("\n".join(TEXTS) + "\n")
        fa_file = tmp_path / "ref.fa"
        fa_file.write_text(fa_text)
        self.cli = CableCLI(
            build_session(str(trace_file), str(fa_file)), out=io.StringIO()
        )
        self.service = SessionService(SessionManager(tmp_path / "store"))
        self.service.create({"session": "d", "traces": TEXTS, "fa": fa_text})

    def repl(self, line: str) -> str:
        """Run one REPL line; return what it printed."""
        start = len(self.cli.out.getvalue())
        self.cli.run_line(line)
        return self.cli.out.getvalue()[start:]

    def http(self, verb: str, **payload) -> dict:
        return self.service.handle_verb("d", verb, payload)

    def stack(self) -> list:
        return self.service.manager.run("d", lambda record: list(record.stack))

    def step(self, line: str, verb: str, **payload) -> dict:
        """Run one verb on both sides; the REPL prints the text
        rendering of the service's JSON result."""
        printed = self.repl(line)
        result = self.http(verb, **payload)
        entry = VERBS[verb]
        text = entry.text(result, check_args(verb, entry.args, payload))
        assert printed == (f"{text}\n" if text else ""), line
        return result


@pytest.fixture
def pair(tmp_path):
    return Pair(tmp_path)


def test_scripted_session_is_the_same_on_both_front_ends(pair, tmp_path):
    lattice = pair.cli.session.lattice
    top = lattice.top
    bad = lattice.object_concept(TEXTS.index("fopen(X); fread(X)"))
    added_file = tmp_path / "added.txt"
    added_file.write_text("\n".join(ADDED) + "\n")
    fa_file = tmp_path / "focus.fa"
    fa_file.write_text(fa_to_text(reference_fa()))

    covered = set()

    def step(line, verb, **payload):
        covered.add(verb)
        return pair.step(line, verb, **payload)

    assert step("lattice", "lattice")["focused"] is False
    step(f"inspect {top}", "inspect", concept=top)
    step(f"fa {top}", "fa", concept=top)
    step(f"trans {top}", "transitions", concept=top)
    step(f"traces {top} unlabeled", "traces", concept=top, which="unlabeled")
    step("rank 3", "rank", count=3)
    step(f"label {bad} bad all", "label", concept=bad, label="bad", which="all")
    assert step(
        f"focus {top} seed pclose(X)",
        "focus",
        concept=top,
        template="seed",
        arg="pclose(X)",
    )["depth"] == 1
    assert step("lattice", "lattice")["focused"] is True
    inner_top = pair.cli.session.lattice.top
    step(f"label {inner_top} good", "label", concept=inner_top, label="good")
    step("state", "state")
    step("endfocus", "endfocus")
    step("flow", "flow")
    step(f"addtraces {added_file}", "addtraces", traces=ADDED)
    step(
        f"focus {top} fa {fa_file}",
        "focus",
        concept=top,
        template="fa",
        arg=fa_file.read_text(),
    )
    step("endfocus", "endfocus")
    step("good", "good")
    step("state", "state")
    assert covered == set(VERBS)

    repl_stack, http_stack = pair.cli.stack, pair.stack()
    assert len(repl_stack) == len(http_stack) == 1
    repl, http = repl_stack[0], http_stack[0]
    assert len(repl.lattice) == len(http.lattice)
    assert (repl.ops.inspections, repl.ops.labelings) == (
        http.ops.inspections,
        http.ops.labelings,
    )
    n = repl.clustering.num_objects
    assert n == http.clustering.num_objects
    assert [repl.labels.label_of(o) for o in range(n)] == [
        http.labels.label_of(o) for o in range(n)
    ]


@pytest.mark.parametrize(
    "line, verb, payload, argument",
    [
        ("focus {top} seed", "focus", {"concept": "{top}", "template": "seed"}, "arg"),
        ("focus {top} name", "focus", {"concept": "{top}", "template": "name"}, "arg"),
        ("label {top}", "label", {"concept": "{top}"}, "label"),
        ("inspect", "inspect", {}, "concept"),
        ("inspect x", "inspect", {"concept": "x"}, "concept"),
        ("rank 0", "rank", {"count": 0}, "count"),
        ("rank -1", "rank", {"count": -1}, "count"),
    ],
)
def test_bad_arguments_fail_alike(pair, line, verb, payload, argument):
    top = pair.cli.session.lattice.top
    payload = {k: top if v == "{top}" else v for k, v in payload.items()}
    with pytest.raises(InputError) as info:
        pair.http(verb, **payload)
    assert info.value.context["argument"] == argument
    assert pair.repl(line.format(top=top)) == f"error: {info.value}\n"
    # Neither side acted on the bad request.
    assert len(pair.cli.stack) == len(pair.stack()) == 1
    assert pair.cli.session.ops.total == pair.stack()[0].ops.total == 0


#: The second trace does not parse: an event misses its ``)``.
MALFORMED = ["fopen(f1); fclose(f1)", "fopen(f1; fclose(f1)"]


class TestMalformedTraceInput:
    """Trace input fails closed: an :class:`InputError` naming the
    trace, ``error: ...`` and exit 2 on the CLI, 400 over HTTP."""

    @pytest.mark.parametrize(
        "lines, message",
        [([], "a session needs at least one trace"), (MALFORMED, "trace=1")],
        ids=["empty", "malformed"],
    )
    def test_cli_startup(self, tmp_path, capsys, lines, message):
        path = tmp_path / "traces.txt"
        path.write_text("".join(f"{line}\n" for line in lines))
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_service_create(self, pair):
        with pytest.raises(InputError) as info:
            pair.service.create({"session": "m", "traces": MALFORMED})
        assert info.value.context == {"trace": 1, "text": MALFORMED[1]}
        assert status_for(info.value) == 400
        assert error_body(info.value)["error"]["context"]["trace"] == 1
        sessions = pair.service.list_sessions()["sessions"]
        assert [s["session"] for s in sessions] == ["d"]

    def test_addtraces_on_both_front_ends(self, pair, tmp_path):
        with pytest.raises(InputError) as info:
            pair.http("addtraces", traces=MALFORMED)
        assert info.value.context["trace"] == 1
        assert status_for(info.value) == 400
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(MALFORMED) + "\n")
        assert pair.repl(f"addtraces {path}") == f"error: {info.value}\n"
        # Neither side added the well-formed trace before the bad one.
        for session in (pair.cli.session, pair.stack()[0]):
            assert sum(session.clustering.class_counts) == len(TEXTS)


class TestAddedTraceIds:
    """Added traces get ids unique for the session's whole life."""

    def test_repl_sessions_reload_after_repeated_addtraces(self, pair, tmp_path):
        for i, text in enumerate(ADDED + ["fopen(w); fwrite(w)"]):
            path = tmp_path / f"batch{i}.txt"
            path.write_text(text + "\n")
            pair.repl(f"addtraces {path}")
        saved = tmp_path / "s.json"
        pair.repl(f"savesession {saved}")
        restored = load_session(saved)
        assert restored.clustering.num_objects == (
            pair.cli.session.clustering.num_objects
        )
        # A reloaded session keeps numbering past the ids it holds.
        cli = CableCLI(restored, out=io.StringIO())
        more = tmp_path / "more.txt"
        more.write_text("popen(v); fread(v); fwrite(v); pclose(v)\n")
        cli.run_line(f"addtraces {more}")
        cli.run_line(f"savesession {saved}")
        assert "error" not in cli.out.getvalue()
        load_session(saved)

    def test_service_sessions_resume_after_repeated_addtraces(self, pair):
        # The first batch joins an existing class and opens a new one.
        assert pair.http("addtraces", traces=ADDED)["added"] == 1
        assert pair.http("addtraces", traces=["fopen(w); fwrite(w)"])["added"] == 1
        before = pair.http("state")
        assert pair.http("suspend")["suspended"] is True
        assert pair.http("state") == before


def test_service_verbs_come_from_the_table():
    assert set(SERVICE_VERBS) == set(VERBS) | {"save", "suspend"}
    docs = (Path(__file__).resolve().parent.parent / "docs" / "service.md").read_text()
    for verb in SERVICE_VERBS:
        assert f"`{verb}`" in docs, verb
