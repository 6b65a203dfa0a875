"""The population campaign: one runner, one run per (user, level).

:class:`PopulationRunner` adapts the sampled population to the
existing campaign machinery by *pairing* ``cases[i]`` with
``clients[i]`` — each sampled user is one case (its impairment
scenario) plus one client (its sampled profile) — instead of the
default cases × clients cross product.  Everything downstream rides
unchanged: the content-addressed store keys digest each sample's
concrete case + profile, :func:`~repro.fanout.shared_map` fans the
paired specs out over the pool, resilience/journal/resume address
runs by the sample-unique case name, and ``repro cache gc`` marks
liveness through the plan's keys.

Samples materialize lazily and memoize: enumeration touches no
sampler state (every case shares the degradation sweep), and the
runner pickles as its recipe — spec, sample count, seed, sweep — so a
10 000-user campaign ships a few hundred bytes to each pool worker
instead of 10 000 dataclasses, and each worker materializes only the
indices it executes.

Planning needs less than a sample: a user's store keys read only its
*identity* — case name, client ``full_name`` and configuration digest
(:meth:`~repro.testbed.runner.TestRunner.identity`).  Sampling costs
six ``random.Random`` seedings plus a canonical rendering of the whole
configuration, so identities live in one process-wide
:class:`~repro.memo.BoundedMemo`, :data:`IDENTITIES`, keyed by the
content that fixes them: the spec's digest, the seed, the run and
resolver timeouts, the HEv3 flag and the (paired) sample index.  That
content alone fixes the identity: the sampler is a pure function of
(spec, seed, index) and the digest renders every spec field; the case
is its index, the run timeout and :data:`DEGRADATION_SPEC` (its sweep
is neutralized before digesting); the configuration digest adds only
the resolver timeout and the HEv3 flag.  Neither the sample count nor
the degradation sweep is in the key, so a smaller population of the
same spec, the other population experiment and every later plan in
the process (service admissions, ``repro ls`` and ``repro cache gc``
planning both experiments) hit the first plan's entries.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Dict, List, Tuple

from ..memo import BoundedMemo
from ..simnet.addr import Family
from ..simnet.packet import Protocol
from ..testbed.config import (ImpairmentSpec, SweepSpec, TestCaseConfig,
                              TestCaseKind)
from ..testbed.runner import TestRunner
from ..testbed.store import canonical
from .distributions import PopulationSpec
from .sampler import PopulationSampler, SampledUser

#: The campaign's IPv6-degradation axis: the sweep value (ms) delays
#: IPv6 TCP on the server egress — the population-scale analogue of
#: the Figure 2 CAD sweep.
DEGRADATION_SPEC = ImpairmentSpec(family=Family.V6, protocol=Protocol.TCP,
                                  value_scaled=True, name="v6-degradation")

#: Default degradation sweep: healthy, inflated, badly inflated.
DEFAULT_DEGRADATION = SweepSpec.fixed(0, 100, 200)

#: Sampled users' store identities, process-wide: the canonical
#: rendering of ``(spec digest, seed, run timeout, resolver timeout,
#: HEv3 flag)`` plus the paired sample index -> ``(case name, client
#: full_name, configuration digest)``.
IDENTITIES = BoundedMemo()


class _SampleColumn(Sequence):
    """Lazy ``cases``/``clients`` view over the runner's sample memo."""

    def __init__(self, runner: "PopulationRunner", role: str) -> None:
        self._runner = runner
        self._role = role

    def __len__(self) -> int:
        return self._runner.samples

    def __getitem__(self, index: int):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        case, user = self._runner.materialize(index)
        return case if self._role == "case" else user.profile


def _rebuild_runner(spec: PopulationSpec, samples: int, seed: int,
                    degradation: SweepSpec, run_timeout: float,
                    resolver_timeout: float) -> "PopulationRunner":
    return PopulationRunner(spec, samples, seed=seed,
                            degradation=degradation,
                            run_timeout=run_timeout,
                            resolver_timeout=resolver_timeout)


class PopulationRunner(TestRunner):
    """A :class:`TestRunner` over a sampled population.

    ``cases[i]`` and ``clients[i]`` describe the same sampled user;
    :meth:`enumerate_specs` pairs them, so the campaign is
    ``samples × len(degradation)`` runs — never a cross product.
    """

    def __init__(self, spec: PopulationSpec, samples: int, seed: int = 0,
                 degradation: SweepSpec = DEFAULT_DEGRADATION,
                 run_timeout: float = 30.0,
                 resolver_timeout: float = 5.0) -> None:
        if samples < 1:
            raise ValueError(f"samples must be >= 1: {samples}")
        self.population_spec = spec
        self.samples = samples
        self.degradation = degradation
        self.run_timeout = run_timeout
        self.sampler = PopulationSampler(spec, seed=seed)
        self._memo: "Dict[int, Tuple[TestCaseConfig, SampledUser]]" = {}
        # TestRunner fields, set directly: the base initializer would
        # materialize list(clients)/list(cases), defeating laziness.
        self.clients = _SampleColumn(self, "client")
        self.cases = _SampleColumn(self, "case")
        self.seed = seed
        self.resolver_timeout = resolver_timeout
        self.hev3_flag = False
        #: What fixes a user's identity besides its index (see
        #: :data:`IDENTITIES`), type-tagged like the digests it keys:
        #: a timeout of 30 and one of 30.0 render different keys.
        self._content = canonical((spec.digest(), seed, run_timeout,
                                   resolver_timeout, self.hev3_flag))

    def __reduce__(self):
        return (_rebuild_runner,
                (self.population_spec, self.samples, self.seed,
                 self.degradation, self.run_timeout,
                 self.resolver_timeout))

    def materialize(self, index: int
                    ) -> "Tuple[TestCaseConfig, SampledUser]":
        """Sample user ``index`` (memoized) as (case, user)."""
        pair = self._memo.get(index)
        if pair is None:
            if not 0 <= index < self.samples:
                raise IndexError(f"sample index out of range: {index}")
            user = self.sampler.user(index)
            case = TestCaseConfig(
                name=f"pop-{index:06d}",
                kind=TestCaseKind.IMPAIRMENT,
                sweep=self.degradation,
                repetitions=1,
                run_timeout=self.run_timeout,
                impairments=(DEGRADATION_SPEC,) + user.impairments)
            pair = (case, user)
            self._memo[index] = pair
        return pair

    def user(self, index: int) -> SampledUser:
        return self.materialize(index)[1]

    def identity(self, case_index: int,
                 client_index: int) -> "Tuple[str, str, str]":
        """The pair's identity from :data:`IDENTITIES`, sampled and
        rendered only on the process's first plan of it."""
        key = (self._content, case_index, client_index)
        found = IDENTITIES.get(key)
        if found is None:
            found = IDENTITIES.put(
                key, super().identity(case_index, client_index))
        return found

    def enumerate_specs(self) -> "List":
        """Paired enumeration: sample-major, degradation-minor.

        Touches no sampler state — every case shares the degradation
        sweep — so planning the spec list for 10⁶ users is O(runs)
        tuple construction, not 10⁶ samplings.
        """
        from ..testbed.parallel import RunSpec

        return [RunSpec(index, index, value_ms, 0)
                for index in range(self.samples)
                for value_ms in self.degradation]
