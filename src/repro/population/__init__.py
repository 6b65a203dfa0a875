"""Population-mix Monte-Carlo campaigns.

Sample whole client populations from declarative distributions
(:mod:`repro.population.distributions`), map each ``(spec, seed,
index)`` coordinate to a concrete policy stack + impairment scenario
(:mod:`repro.population.sampler`), and stream the resulting paired
campaign through the existing store/executor/resilience machinery
(:mod:`repro.population.campaign`).  The registered experiments live
in :mod:`repro.population.experiments`.

Every name below resolves on first use (:mod:`repro._lazy`), so
importing one submodule — as the experiment catalogue does — runs no
other; the sampler, campaign and distributions load only when a
population experiment plans or executes.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "distributions": ("Categorical", "Choice", "Fixed", "IMPAIRMENT_MIXES",
                      "Normal", "OS_SORTLISTS", "PRESETS", "PopulationSpec",
                      "PopulationSpecError", "RESOLVER_BEHAVIORS",
                      "STACK_FAMILIES", "Uniform", "parse_numeric",
                      "resolve_spec"),
    "sampler": ("PopulationSampler", "SampledUser"),
    "campaign": ("DEGRADATION_SPEC", "DEFAULT_DEGRADATION",
                 "PopulationRunner"),
    "experiments": ("PopulationFamilyShareExperiment",
                    "PopulationLatencyExperiment"),
})
