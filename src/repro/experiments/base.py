"""The Experiment API: Session, Knob, Artifact, Experiment.

Every artifact the reproduction can produce — the paper's tables and
figures, the conformance battery, diagnostic traces — is an
:class:`Experiment`: a named, registered object with three separable
phases:

* :meth:`Experiment.plan` — the experiment's runs as data, **without
  executing anything**: a :class:`~repro.testbed.parallel.Plan`, a
  flat ordered tuple of typed entries, each holding its coordinates,
  run seed and store key.  ``repro cache gc`` marks the union of all
  registered plans' keys as live, so a newly registered experiment can
  never be silently collected; ``repro ls`` counts them; the campaign
  service admits a submission by its plan.
* :meth:`Experiment.execute` — consume that plan: resolve its entries
  through the one store-backed executor
  (:func:`~repro.testbed.parallel.resolve_specs`) and return a result
  object (pure data, no I/O besides the campaign store).
* :meth:`Experiment.render` — turn a result into an :class:`Artifact`
  (text, optionally with a machine-readable JSON form).

Keys and seeds are derived once, in ``plan()``; :meth:`Experiment.run`
plans once and hands the plan to ``execute``.

A single :class:`Session` carries everything an invocation shares —
seed, worker count, campaign store, resilience bundle and the
experiment's knob values — and every function that executes runs
takes it whole, so the execution context is one object, never a
hand-threaded ``(store, workers, resilience)`` tuple.  The session
also owns the invocation's counters (:class:`~repro.metrics.Metrics`)
and their summary lines, so they are printed exactly once per
invocation instead of being copy-pasted into every command.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional, Tuple)

from ..metrics import Metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..testbed.parallel import Plan
    from ..testbed.resilience import Resilience
    from ..testbed.store import CampaignStore


@dataclass(frozen=True)
class Knob:
    """One declared experiment parameter, CLI-mappable.

    Knobs are the single source of truth for an experiment's options:
    the generic ``repro run <name>`` verb *and* the legacy command
    alias both generate their argparse arguments from the same
    declarations, which is what keeps them flag-compatible and
    byte-identical.
    """

    name: str
    type: Callable[[str], Any] = int
    default: Any = None
    help: str = ""
    #: ``store_true`` boolean switch (``--no-web`` style).
    flag: bool = False
    #: Positional argument (``repro fingerprint <client>`` style).
    positional: bool = False
    metavar: Optional[str] = None

    @property
    def option(self) -> str:
        """The CLI spelling: ``delay_ms`` → ``--delay-ms``."""
        return "--" + self.name.replace("_", "-")

    def add_to_parser(self, parser, required: bool = False) -> None:
        """Materialize this knob on an argparse parser."""
        if self.positional:
            if required:
                parser.add_argument(self.name, help=self.help,
                                    metavar=self.metavar or self.name)
            else:
                parser.add_argument(self.name, nargs="?",
                                    default=self.default, help=self.help,
                                    metavar=self.metavar or self.name)
        elif self.flag:
            parser.add_argument(self.option, dest=self.name,
                                action="store_true", help=self.help)
        else:
            parser.add_argument(self.option, dest=self.name,
                                type=self.type, default=self.default,
                                help=self.help, metavar=self.metavar)


@dataclass
class Artifact:
    """What an experiment renders: text, plus an optional JSON form."""

    text: str
    #: JSON-serializable machine-readable form, or None when the
    #: experiment has no meaningful one (``--json`` then falls back
    #: to the text rendering).
    data: Any = None

    def json_text(self, indent: int = 2) -> str:
        """Deterministic JSON (sorted keys — byte-identical across
        serial, parallel, and warm-cache invocations)."""
        return json.dumps(self.data, indent=indent, sort_keys=True)


@dataclass
class Session:
    """Everything one experiment invocation shares.

    The one execution context: experiments read their inputs from
    here, the CLI (or any other host — tests, notebooks, batch
    drivers) builds exactly one Session per invocation, and every
    function that executes runs — the executor
    (:func:`~repro.testbed.parallel.resolve_specs`), the stage loop
    and every campaign built on them — takes the whole Session, so no
    campaign can drop the store, the worker count or the resilience
    bundle.  Planning takes only the coordinates it needs (a seed, a
    store).  The Session stays in the parent: runners whose runs ship
    to pool workers never hold it.  ``Session()`` is serial, storeless
    and fail-fast.
    """

    seed: int = 0
    workers: Optional[int] = None
    store: Optional[CampaignStore] = None
    knobs: Dict[str, Any] = field(default_factory=dict)
    #: The fault-tolerant runtime bundle (retry policy, fault plan,
    #: campaign journal, resume mode) — None runs every campaign in
    #: the historical fail-fast mode.
    resilience: Optional[Resilience] = None
    #: The invocation's counters: the store's own when there is a
    #: store (so every layer counts into one object), else fresh.
    metrics: Metrics = field(default_factory=Metrics, init=False,
                             repr=False)

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1: {self.workers}")
        if self.store is not None:
            self.metrics = self.store.metrics
        # Store faults fire parent-side, where the executor reads and
        # writes, so the store takes the session's fault plan.
        if (self.store is not None and self.resilience is not None
                and self.resilience.fault_plan is not None):
            self.store.fault_plan = self.resilience.fault_plan

    def knob(self, name: str, default: Any = None) -> Any:
        """The invocation's value for ``name``, else ``default``.

        ``None`` stored under a knob (an argparse default that was
        never overridden) also falls back — so experiment defaults
        hold unless the caller actually set something.
        """
        value = self.knobs.get(name)
        return default if value is None else value

    def summary_lines(self) -> List[str]:
        """The invocation's ``[cache]`` and ``[faults]`` lines.

        A session whose store was never touched (e.g. ``conformance
        --list``) prints no ``[cache]`` line, so pure commands stay
        byte-identical with and without a cache directory; fault lines
        print only when resilience was *explicitly* requested.
        """
        res = self.resilience
        return self.metrics.summary_lines(
            root=None if self.store is None else self.store.root,
            failures=res.failures if res is not None and res.explicit
            else None)


class Experiment:
    """Base class: one registered, enumerable, runnable artifact.

    Subclasses declare metadata as class attributes and implement
    :meth:`execute` / :meth:`render`; :meth:`plan` defaults to an
    empty plan (pure experiments reference no campaign store keys).
    """

    #: Registry name (also the ``repro run <name>`` spelling).
    name: str = ""
    #: One-line description (CLI help and ``repro ls``).
    title: str = ""
    #: Where in the paper (or RFC) this artifact comes from.
    paper: str = ""
    #: Declared parameters, in CLI order.
    knobs: Tuple[Knob, ...] = ()
    #: Whether render() produces a machine-readable Artifact.data.
    json_capable: bool = False

    def default_knobs(self) -> Dict[str, Any]:
        return {knob.name: knob.default for knob in self.knobs}

    def knob(self, session: Session, name: str) -> Any:
        """``session``'s value for the declared knob ``name``, else
        its declared default — what the CLI fills in — so a library
        Session built without knobs runs what the CLI runs."""
        return session.knob(name, self.default_knobs()[name])

    # -- the three phases ------------------------------------------------------

    def plan(self, session: Session) -> "Plan":
        """Every run this experiment's campaigns would reference under
        ``session`` — pure, no execution.  An adaptive campaign plans
        each later stage only while ``session.store`` already holds
        every record of the stage before it."""
        from ..testbed.parallel import Plan

        return Plan()

    def execute(self, session: Session, plan: "Plan") -> Any:
        """Run ``plan`` (what :meth:`plan` returned) and return the
        result data."""
        raise NotImplementedError

    def render(self, result: Any) -> Artifact:
        raise NotImplementedError

    # -- conveniences ----------------------------------------------------------

    def run(self, session: Session) -> Artifact:
        """plan + execute + render in one call (the common host path).

        Plans once, without the store: execution resolves every stage
        against the store itself, so probing it while planning would
        only look each hit up twice."""
        from ..testbed.parallel import Plan

        plan = Plan(self.plan(replace(session, store=None)))
        return self.render(self.execute(session, plan))

    def planned_keys(self, session: Session) -> int:
        """Distinct planned keys under ``session`` (``repro ls``)."""
        return len({entry.key for entry in self.plan(session)})

    def sample_space(self, session: Session
                     ) -> "Optional[Tuple[int, str]]":
        """``(sample-space size, distribution digest)`` for
        sample-indexed experiments (the population family), None for
        experiments that enumerate fixed configurations.  ``repro ls``
        renders this next to the planned-key count."""
        return None


def knob_mapping(experiment: Experiment,
                 values: Mapping[str, Any]) -> Dict[str, Any]:
    """The experiment's declared knobs resolved against ``values``
    (undeclared names in ``values`` are ignored)."""
    resolved = experiment.default_knobs()
    for name in resolved:
        if name in values and values[name] is not None:
            resolved[name] = values[name]
    return resolved
