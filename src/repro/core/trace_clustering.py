"""Clustering traces with respect to a reference FA (Section 3.2).

The formal context is:

* **O** — the traces themselves (one object per identical-event class if
  ``dedup`` is on, which is how the paper ran its experiments);
* **A** — the reference FA's transitions;
* **R** — ``(o, a) ∈ R`` iff transition ``a`` lies on some accepting
  sequence of transitions for ``o`` (computed by
  :meth:`repro.fa.automaton.FA.relation`).

With this choice, ``sim(X)`` is the number of transitions all traces of X
execute in common — the paper's flexible, specification-connected
similarity measure.

One classify step serves both entry points: :func:`cluster_traces`
groups a corpus into identical-event classes and builds the lattice
cold; :func:`extend_clustering` buckets a new batch against the classes
a clustering already has and resumes Godin's construction.  In both,
the grouping and one relation evaluation per group run inside the
``cluster.relation`` span.  Attribute and object names come from the
canonical helpers :func:`transition_attribute_names` and
:func:`trace_object_names`, so the same FA always yields the same
attribute universe and object names always track the *compacted* row
index — context merge/compare, lint fingerprints, and session resume
all rely on that.

The relation phase is evaluated through
:func:`repro.parallel.relation_map`: cached per FA, and fanned out over
a worker pool when ``jobs > 1``.  The supervision knobs ride along:
``retry=`` re-attempts transient relation failures,
``task_timeout=`` bounds one evaluation's wall time, and
``on_fault="quarantine"`` completes the clustering on the survivors —
poisoned classes land in ``rejected`` *and* in the clustering's
``fault_report`` (a :class:`~repro.robustness.quarantine.RejectedReport`
whose entries carry the exhausted exception chains instead of FA
diagnoses).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro.core.concepts import ConceptLattice
from repro.core.context import FormalContext
from repro.core.godin import GodinLatticeBuilder, build_lattice_godin
from repro.fa.automaton import FA
from repro.lang.traces import Trace, dedup_traces
from repro.parallel.relation import RelationMapResult, relation_map
from repro.robustness.budget import Budget
from repro.robustness.errors import ClusteringError
from repro.robustness.quarantine import RejectedReport
from repro.robustness.supervise import RetryPolicy

if TYPE_CHECKING:
    from repro.analysis.diagnostics import LintReport


def transition_attribute_names(fa: FA) -> list[str]:
    """The canonical FCA attribute universe for ``fa``'s transitions.

    ``a<index>: <transition>`` — the index prefix keeps names unique even
    when two transitions render to the same text, and the index *is* the
    transition's identity as a concept attribute.  Every context built
    against ``fa`` must use exactly these names: two paths inventing
    their own schemes yield incompatible universes that break context
    merge/compare, lint fingerprints, and session resume.
    """
    return [f"a{j}: {t}" for j, t in enumerate(fa.transitions)]


def trace_object_names(traces: Sequence[Trace]) -> list[str]:
    """Canonical context object names for an already-compacted trace list.

    ``trace_id`` when present, else ``t<position>`` where ``position`` is
    the trace's index in ``traces`` — which must be the *compacted*
    (accepted-only) list, so names never drift from row indices when some
    pool traces were rejected.
    """
    return [trace.trace_id or f"t{i}" for i, trace in enumerate(traces)]


@dataclass(frozen=True)
class TraceClustering:
    """The result of clustering traces against a reference FA.

    ``lattice.context`` objects correspond one-to-one with
    ``representatives``; ``class_members[i]`` are all the traces (including
    duplicates) that representative ``i`` stands for, so labels assigned to
    an object apply to the whole identical-event class.
    """

    reference_fa: FA
    lattice: ConceptLattice
    representatives: tuple[Trace, ...]
    class_counts: tuple[int, ...]
    class_members: tuple[tuple[Trace, ...], ...]
    rejected: tuple[Trace, ...]
    lint_report: "LintReport | None" = None
    #: Execution faults quarantined under ``on_fault="quarantine"``:
    #: traces whose relation evaluation was poisoned (their members also
    #: appear in ``rejected``).  ``None`` when no faults occurred or the
    #: run was fail-fast.
    fault_report: RejectedReport | None = None

    @property
    def num_objects(self) -> int:
        return len(self.representatives)

    def traces_of(self, objects: Iterable[int]) -> list[Trace]:
        """Representative traces for a set of object indices."""
        return [self.representatives[o] for o in sorted(objects)]

    def transitions_of(self, attrs: Iterable[int]) -> list[str]:
        """Human-readable transitions for a set of attribute indices."""
        return [self.reference_fa.describe_transition(a) for a in sorted(attrs)]


#: The members of one identical-event class; the first stands for all.
Group = Sequence[Trace]

#: Buckets a batch of traces into the classes still to be evaluated, and
#: counts the traces it skipped as duplicates of a class already rejected.
Grouping = Callable[[Sequence[Trace]], tuple[list[Group], int]]


def _classify(
    traces: Sequence[Trace],
    group: Grouping,
    reference_fa: FA,
    prior_faults: RejectedReport | None,
    *,
    strict: bool,
    budget: Budget | None,
    jobs: int | None,
    backend: str,
    retry: "RetryPolicy | int | None",
    task_timeout: float | None,
    on_fault: str,
) -> tuple[list[tuple[Group, frozenset[int]]], list[Trace], RejectedReport | None]:
    """Group ``traces`` and evaluate the relation once per group.

    Returns the accepted groups with their context rows, the rejected
    traces (semantic rejections first, then the members of groups whose
    evaluation was poisoned), and ``prior_faults`` merged with this
    batch's fault report.  Under ``strict=True`` a semantic rejection
    raises :class:`~repro.robustness.errors.ClusteringError`.
    """
    with obs.span("cluster.relation", traces=len(traces)) as relation_span:
        groups, skipped_rejected = group(traces)
        relations = relation_map(
            reference_fa,
            [members[0] for members in groups],
            jobs=jobs,
            backend=backend,
            budget=budget,
            retry=retry,
            task_timeout=task_timeout,
            on_fault=on_fault,
        )
        if isinstance(relations, RelationMapResult):
            fault_errors = dict(relations.failures)
            relations = relations.results
        else:
            fault_errors = {}
        accepted: list[tuple[Group, frozenset[int]]] = []
        rejected: list[Trace] = []
        fault_failures: list[tuple[Trace, BaseException]] = []
        for i, (members, rel) in enumerate(zip(groups, relations)):
            if rel is None:
                fault_failures.extend((t, fault_errors[i]) for t in members)
            elif rel.accepted:
                accepted.append((members, rel.executed))
            else:
                rejected.extend(members)
        relation_span.set(
            classes=len(groups),
            rejected=len(rejected),
            rejected_dups=skipped_rejected,
            faults=len(fault_failures),
        )

    if strict and rejected:
        raise ClusteringError(
            "reference FA rejected scenario trace(s) in strict mode",
            num_rejected=len(rejected),
            trace_ids=[t.trace_id or str(t) for t in rejected[:10]],
        )
    rejected.extend(t for t, _ in fault_failures)
    if fault_failures:
        batch_report = RejectedReport.from_failures(fault_failures)
        prior_faults = (
            batch_report
            if prior_faults is None
            else prior_faults.merge(batch_report)
        )
    return accepted, rejected, prior_faults


def cluster_traces(
    traces: Sequence[Trace],
    reference_fa: FA,
    dedup: bool = True,
    *,
    strict: bool = False,
    budget: Budget | None = None,
    lint: bool = False,
    jobs: int | None = None,
    backend: str = "process",
    retry: "RetryPolicy | int | None" = None,
    task_timeout: float | None = None,
    on_fault: str = "raise",
) -> TraceClustering:
    """Cluster ``traces`` with respect to ``reference_fa``.

    ``dedup=True`` (the paper's setting) clusters one representative per
    identical-event class; ``dedup=False`` makes every trace an object
    of its own.  The lattice is built with Godin's incremental algorithm.

    Traces the reference FA rejects are quarantined in ``rejected`` and
    clustering proceeds on the accepted subset (graceful degradation);
    ``strict=True`` restores fail-fast behaviour by raising
    :class:`~repro.robustness.errors.ClusteringError` instead.  A
    ``budget`` bounds the relation fan-out (wall clock) and the lattice
    construction (an over-budget build raises
    :class:`~repro.robustness.errors.BudgetExceeded` with a resumable
    checkpoint).

    ``jobs`` fans the relation phase out over a worker pool (``1``/
    ``None`` = serial, ``0`` = one worker per CPU) with the given
    ``backend`` (``"process"`` by default — the work is CPU-bound);
    results are bit-identical to serial whatever the setting.
    ``retry``/``task_timeout``/``on_fault`` supervise the fan-out (see
    :func:`repro.parallel.parallel_map`): under ``on_fault="quarantine"``
    a poisoned relation evaluation does not abort the clustering —
    the class's members land in ``rejected`` and the exhausted
    exception chains in ``fault_report``.

    ``lint=True`` runs the static spec-lint passes
    (:func:`repro.analysis.lint.lint_reference`) over ``reference_fa``
    and the trace corpus *before* clustering; the report rides along on
    the result as ``lint_report``, and under ``strict=True`` lint
    *errors* abort the run with
    :class:`~repro.robustness.errors.InputError`.
    """
    lint_report: LintReport | None = None
    if lint:
        # Imported here: repro.analysis imports this package's modules.
        from repro.analysis.lint import lint_reference, raise_on_errors

        lint_report = lint_reference(reference_fa, traces)
        if strict:
            raise_on_errors(lint_report)

    def group(traces: Sequence[Trace]) -> tuple[list[Group], int]:
        if dedup:
            return list(dedup_traces(traces).members), 0
        return [(t,) for t in traces], 0

    accepted, rejected, fault_report = _classify(
        traces,
        group,
        reference_fa,
        None,
        strict=strict,
        budget=budget,
        jobs=jobs,
        backend=backend,
        retry=retry,
        task_timeout=task_timeout,
        on_fault=on_fault,
    )
    representatives = tuple(members[0] for members, _ in accepted)
    context = FormalContext(
        trace_object_names(representatives),
        transition_attribute_names(reference_fa),
        [row for _, row in accepted],
    )
    return TraceClustering(
        reference_fa=reference_fa,
        lattice=build_lattice_godin(context, budget=budget),
        representatives=representatives,
        class_counts=tuple(len(members) for members, _ in accepted),
        class_members=tuple(tuple(members) for members, _ in accepted),
        rejected=tuple(rejected),
        lint_report=lint_report,
        fault_report=fault_report,
    )


def extend_clustering(
    clustering: TraceClustering,
    new_traces: Sequence[Trace],
    *,
    strict: bool = False,
    budget: Budget | None = None,
    jobs: int | None = None,
    backend: str = "process",
    retry: "RetryPolicy | int | None" = None,
    task_timeout: float | None = None,
    on_fault: str = "raise",
) -> TraceClustering:
    """Add traces to an existing clustering, incrementally.

    Traces identical to an existing class join that class (object indices
    are stable); genuinely new classes are inserted into the lattice with
    Godin's incremental algorithm, resuming from the existing concepts —
    the update a long-lived Cable session performs when the verifier
    reports a fresh batch of violations.

    Semantics match :func:`cluster_traces`: traces whose key matches an
    already-rejected trace are skipped outright (no re-evaluation, no
    duplicate ``rejected`` entry); newly rejected classes land in
    ``rejected`` with all their members, or raise
    :class:`~repro.robustness.errors.ClusteringError` under
    ``strict=True``; a ``budget`` bounds both the relation fan-out and
    the incremental lattice insertions.  ``retry``/``task_timeout``/
    ``on_fault`` supervise the relation fan-out; under
    ``on_fault="quarantine"`` poisoned classes join ``rejected`` and the
    returned clustering's ``fault_report`` (merged with any prior one).
    """
    reference_fa = clustering.reference_fa
    members = [list(m) for m in clustering.class_members]

    def bucket(traces: Sequence[Trace]) -> tuple[list[Group], int]:
        # Joins of existing classes, duplicates of already-rejected keys
        # (skipped), and one group per distinct unseen key.
        joins = {
            rep.key(): members[o]
            for o, rep in enumerate(clustering.representatives)
        }
        rejected_keys = {t.key() for t in clustering.rejected}
        unseen: dict[tuple, list[Trace]] = {}
        skipped_rejected = 0
        for trace in traces:
            key = trace.key()
            joined = joins.get(key)
            if joined is not None:
                joined.append(trace)
            elif key in rejected_keys:
                skipped_rejected += 1
            else:
                unseen.setdefault(key, []).append(trace)
        return list(unseen.values()), skipped_rejected

    fresh, rejected, fault_report = _classify(
        new_traces,
        bucket,
        reference_fa,
        clustering.fault_report,
        strict=strict,
        budget=budget,
        jobs=jobs,
        backend=backend,
        retry=retry,
        task_timeout=task_timeout,
        on_fault=on_fault,
    )

    if not fresh:
        lattice = clustering.lattice
    else:
        old_context = clustering.lattice.context
        # Reuse check: the existing context must carry the canonical
        # attribute universe for this FA, or the appended rows would be
        # indexed against a different universe than the old ones.
        canonical = tuple(transition_attribute_names(reference_fa))
        if old_context.attributes != canonical:
            raise ClusteringError(
                "clustering context attributes do not match the canonical "
                "universe of its reference FA; rebuild with cluster_traces",
                num_attributes=len(old_context.attributes),
                num_transitions=reference_fa.num_transitions,
            )
        builder = GodinLatticeBuilder.from_lattice(
            clustering.lattice, budget=budget
        )
        rows = list(old_context.rows)
        names = list(old_context.objects)
        for group, executed in fresh:
            builder.add_object(len(rows), executed)
            rows.append(executed)
            names.append(group[0].trace_id or f"t{len(rows) - 1}")
        context = FormalContext(names, old_context.attributes, rows)
        lattice = builder.build(context)
    members.extend(group for group, _ in fresh)

    return TraceClustering(
        reference_fa=reference_fa,
        lattice=lattice,
        representatives=clustering.representatives
        + tuple(group[0] for group, _ in fresh),
        class_counts=tuple(len(m) for m in members),
        class_members=tuple(tuple(m) for m in members),
        rejected=clustering.rejected + tuple(rejected),
        lint_report=clustering.lint_report,
        fault_report=fault_report,
    )
