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
liveness through :meth:`store_keys`.

Samples materialize lazily and memoize: enumeration touches no
sampler state (every case shares the degradation sweep), and the
runner pickles as its recipe — spec, sample count, seed, sweep — so a
10 000-user campaign ships a few hundred bytes to each pool worker
instead of 10 000 dataclasses, and each worker materializes only the
indices it executes.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Dict, List, Optional, Tuple

from ..simnet.addr import Family
from ..simnet.packet import Protocol
from ..testbed.config import (ImpairmentSpec, SweepSpec, TestCaseConfig,
                              TestCaseKind)
from ..testbed.resilience import Resilience
from ..testbed.runner import TestRunner
from ..testbed.store import CampaignStore
from .distributions import PopulationSpec
from .sampler import PopulationSampler, SampledUser

#: The campaign's IPv6-degradation axis: the sweep value (ms) delays
#: IPv6 TCP on the server egress — the population-scale analogue of
#: the Figure 2 CAD sweep.
DEGRADATION_SPEC = ImpairmentSpec(family=Family.V6, protocol=Protocol.TCP,
                                  value_scaled=True, name="v6-degradation")

#: Default degradation sweep: healthy, inflated, badly inflated.
DEFAULT_DEGRADATION = SweepSpec.fixed(0, 100, 200)


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
                    resolver_timeout: float, store, resilience
                    ) -> "PopulationRunner":
    return PopulationRunner(spec, samples, seed=seed,
                            degradation=degradation,
                            run_timeout=run_timeout,
                            resolver_timeout=resolver_timeout,
                            store=store, resilience=resilience)


class PopulationRunner(TestRunner):
    """A :class:`TestRunner` over a sampled population.

    ``cases[i]`` and ``clients[i]`` describe the same sampled user;
    :meth:`enumerate_specs` pairs them, so the campaign is
    ``samples × len(degradation)`` runs — never a cross product.
    """

    def __init__(self, spec: PopulationSpec, samples: int, seed: int = 0,
                 degradation: SweepSpec = DEFAULT_DEGRADATION,
                 run_timeout: float = 30.0,
                 resolver_timeout: float = 5.0,
                 store: Optional[CampaignStore] = None,
                 resilience: Optional[Resilience] = None) -> None:
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
        self.store = store
        self.resilience = resilience

    def __reduce__(self):
        return (_rebuild_runner,
                (self.population_spec, self.samples, self.seed,
                 self.degradation, self.run_timeout,
                 self.resolver_timeout, self.store, self.resilience))

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
