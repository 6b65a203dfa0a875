"""Declarative population distributions (the sampling subsystem's specs).

A :class:`PopulationSpec` describes a whole client population — OS and
sortlist shares, client-stack shares, CAD/RD parameter distributions,
resolver behaviours, and network-impairment mixes — as a composition of
small frozen distribution dataclasses.  The spec is *digest-able*: its
:meth:`~PopulationSpec.digest` runs the same canonical rendering the
campaign store uses for run configurations
(:func:`repro.testbed.store.config_digest`), so two specs with the same
content produce the same digest no matter the field or weight ordering
they were written in — categorical choices are sorted by name at
construction, and JSON objects parse into named dataclass fields.

Every distribution maps a uniform draw in ``[0, 1)`` through its
inverse CDF (:meth:`sample`).  The sampler keeps the uniform draw a
pure function of ``(population seed, field, sample index)`` —
independent of the distribution's *parameters* — so editing a
distribution remaps only the samples whose uniforms land in the region
that actually moved: the store keys of unchanged concrete samples stay
identical, and a spec edit invalidates exactly the affected sample
keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Any, Dict, Mapping, Tuple, Union

from ..testbed.store import config_digest

#: Operating systems a population may contain, with their RFC 6724
#: policy table (android ships the linux table).
OS_SORTLISTS: "Mapping[str, str]" = {
    "linux": "linux",
    "windows": "windows",
    "macos": "macos",
    "android": "linux",
}

#: Client-stack families a population may mix (the engine taxonomy of
#: :mod:`repro.clients.profile`, plus the HEv3 draft reference).
STACK_FAMILIES = ("chromium", "gecko", "webkit", "curl", "wget", "hev3")

#: Resolver behaviours (mapped to DNS answer-delay impairments by the
#: sampler).
RESOLVER_BEHAVIORS = ("responsive", "slow", "lame-aaaa")

#: Named network-impairment mixes (mapped to netem stanzas by the
#: sampler).
IMPAIRMENT_MIXES = ("healthy", "jittery", "v6-jittery", "v6-lossy",
                    "congested")


class PopulationSpecError(ValueError):
    """A population spec failed to parse or validate."""


@dataclass(frozen=True)
class Categorical:
    """Weighted categorical shares, sampled by inverse CDF.

    Choices are normalized to name-sorted order at construction, so the
    digest of ``{"a": 1, "b": 3}`` equals the digest of
    ``{"b": 3, "a": 1}`` — share *content*, not spelling order, is what
    addresses the samples.
    """

    choices: "Tuple[Tuple[str, float], ...]"

    def __post_init__(self) -> None:
        if not self.choices:
            raise PopulationSpecError("categorical needs at least one "
                                      "choice")
        for name, weight in self.choices:
            if weight <= 0:
                raise PopulationSpecError(
                    f"categorical weight for {name!r} must be positive: "
                    f"{weight!r}")
        object.__setattr__(
            self, "choices",
            tuple(sorted((str(name), float(weight))
                         for name, weight in self.choices)))

    def sample(self, u: float) -> str:
        """The choice whose CDF interval contains ``u`` in [0, 1)."""
        total = sum(weight for _, weight in self.choices)
        acc = 0.0
        for name, weight in self.choices:
            acc += weight
            if u * total < acc:
                return name
        return self.choices[-1][0]  # u == 1 - eps rounding guard

    @property
    def names(self) -> "Tuple[str, ...]":
        return tuple(name for name, _ in self.choices)


@dataclass(frozen=True)
class Fixed:
    """A degenerate numeric distribution: every sample is ``value``."""

    value: float

    def sample(self, u: float) -> float:
        return self.value


@dataclass(frozen=True)
class Uniform:
    """Uniform over ``[low, high)``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise PopulationSpecError(
                f"uniform needs low <= high: [{self.low!r}, {self.high!r})")

    def sample(self, u: float) -> float:
        return self.low + u * (self.high - self.low)


@dataclass(frozen=True)
class Normal:
    """Normal via inverse CDF, clamped into ``[minimum, maximum]``."""

    mean: float
    stddev: float
    minimum: float
    maximum: float

    def __post_init__(self) -> None:
        if self.stddev <= 0:
            raise PopulationSpecError(
                f"normal stddev must be positive: {self.stddev!r}")
        if self.maximum < self.minimum:
            raise PopulationSpecError(
                f"normal needs minimum <= maximum: "
                f"[{self.minimum!r}, {self.maximum!r}]")

    def sample(self, u: float) -> float:
        # inv_cdf is undefined at 0 and 1; the clamp bounds the tails
        # anyway, so squeezing u into the open interval loses nothing.
        u = min(max(u, 1e-9), 1.0 - 1e-9)
        value = NormalDist(self.mean, self.stddev).inv_cdf(u)
        return min(max(value, self.minimum), self.maximum)


@dataclass(frozen=True)
class Choice:
    """Weighted discrete numeric values (e.g. the fixed CADs clients
    actually ship), sampled like :class:`Categorical` but returning the
    value itself."""

    values: "Tuple[Tuple[float, float], ...]"  # (value, weight), value-sorted

    def __post_init__(self) -> None:
        if not self.values:
            raise PopulationSpecError("choice needs at least one value")
        for value, weight in self.values:
            if weight <= 0:
                raise PopulationSpecError(
                    f"choice weight for {value!r} must be positive: "
                    f"{weight!r}")
        object.__setattr__(
            self, "values",
            tuple(sorted((float(value), float(weight))
                         for value, weight in self.values)))

    def sample(self, u: float) -> float:
        total = sum(weight for _, weight in self.values)
        acc = 0.0
        for value, weight in self.values:
            acc += weight
            if u * total < acc:
                return value
        return self.values[-1][0]


NumericDistribution = Union[Fixed, Uniform, Normal, Choice]


def parse_numeric(data: Any, field: str) -> NumericDistribution:
    """One numeric distribution from its JSON form.

    Accepted forms: a bare number (→ :class:`Fixed`), or an object
    with a ``kind`` of ``fixed`` / ``uniform`` / ``normal`` /
    ``choice``.
    """
    if isinstance(data, (int, float)) and not isinstance(data, bool):
        return Fixed(float(data))
    if not isinstance(data, Mapping):
        raise PopulationSpecError(
            f"{field}: expected a number or a distribution object, got "
            f"{data!r}")
    kind = data.get("kind")
    try:
        if kind == "fixed":
            return Fixed(float(data["value"]))
        if kind == "uniform":
            return Uniform(float(data["low"]), float(data["high"]))
        if kind == "normal":
            return Normal(float(data["mean"]), float(data["stddev"]),
                          float(data["minimum"]), float(data["maximum"]))
        if kind == "choice":
            values = data["values"]
            weights = data.get("weights", [1.0] * len(values))
            if len(weights) != len(values):
                raise PopulationSpecError(
                    f"{field}: {len(values)} values but {len(weights)} "
                    "weights")
            return Choice(tuple(zip(map(float, values),
                                    map(float, weights))))
    except KeyError as exc:
        raise PopulationSpecError(
            f"{field}: {kind!r} distribution is missing field {exc}")
    raise PopulationSpecError(
        f"{field}: unknown distribution kind {kind!r} (expected fixed, "
        "uniform, normal, or choice)")


def _parse_shares(data: Any, field: str,
                  domain: "Tuple[str, ...]") -> Categorical:
    if not isinstance(data, Mapping) or not data:
        raise PopulationSpecError(
            f"{field}: expected a non-empty object of name → weight, "
            f"got {data!r}")
    unknown = sorted(set(data) - set(domain))
    if unknown:
        raise PopulationSpecError(
            f"{field}: unknown names {unknown} (expected a subset of "
            f"{sorted(domain)})")
    return Categorical(tuple(data.items()))


@dataclass(frozen=True)
class PopulationSpec:
    """A whole client population, declaratively.

    The digest is stable under field/weight reordering (see module
    docstring) and addresses the population in ``repro ls`` and the
    rendered artifacts; the *store* keys of individual samples are
    deliberately **not** derived from it — they digest each sample's
    concrete configuration, which is what makes spec edits invalidate
    exactly the samples they actually change.
    """

    os_shares: Categorical
    stack_shares: Categorical
    cad_ms: NumericDistribution
    rd_ms: NumericDistribution
    resolver_shares: Categorical
    impairment_shares: Categorical

    @classmethod
    def from_dict(cls, data: "Mapping[str, Any]") -> "PopulationSpec":
        """Parse the JSON object form (the ``--spec`` stanza)."""
        if not isinstance(data, Mapping):
            raise PopulationSpecError(
                f"population spec must be an object, got {data!r}")
        known = {"os", "stacks", "cad_ms", "rd_ms", "resolvers",
                 "impairments"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise PopulationSpecError(
                f"population spec: unknown fields {unknown} (expected "
                f"a subset of {sorted(known)})")
        missing = sorted(known - set(data))
        if missing:
            raise PopulationSpecError(
                f"population spec: missing fields {missing}")
        return cls(
            os_shares=_parse_shares(data["os"], "os",
                                    tuple(OS_SORTLISTS)),
            stack_shares=_parse_shares(data["stacks"], "stacks",
                                       STACK_FAMILIES),
            cad_ms=parse_numeric(data["cad_ms"], "cad_ms"),
            rd_ms=parse_numeric(data["rd_ms"], "rd_ms"),
            resolver_shares=_parse_shares(data["resolvers"], "resolvers",
                                          RESOLVER_BEHAVIORS),
            impairment_shares=_parse_shares(data["impairments"],
                                            "impairments",
                                            IMPAIRMENT_MIXES),
        )

    def digest(self) -> str:
        """Content digest over the canonical spec rendering — stable
        under field reordering by construction."""
        return config_digest(self)

    def short_digest(self) -> str:
        return self.digest()[:12]


#: Named population presets: JSON-shaped (so presets exercise the same
#: parser as ``--spec @file``), keyed by the name ``--spec`` accepts.
PRESETS: "Dict[str, Dict[str, Any]]" = {
    # A rough mix of today's client landscape: mostly Chromium-family
    # on Linux/Windows, fixed CADs near the values clients actually
    # ship, mostly healthy networks with a tail of impaired eyeballs.
    "default": {
        "os": {"linux": 0.52, "windows": 0.28, "macos": 0.12,
               "android": 0.08},
        "stacks": {"chromium": 0.55, "gecko": 0.18, "webkit": 0.14,
                   "curl": 0.06, "wget": 0.04, "hev3": 0.03},
        "cad_ms": {"kind": "choice", "values": [150, 200, 250, 300],
                   "weights": [0.10, 0.15, 0.35, 0.40]},
        "rd_ms": {"kind": "normal", "mean": 50, "stddev": 15,
                  "minimum": 10, "maximum": 100},
        "resolvers": {"responsive": 0.80, "slow": 0.15,
                      "lame-aaaa": 0.05},
        "impairments": {"healthy": 0.60, "v6-jittery": 0.20,
                        "v6-lossy": 0.15, "congested": 0.05},
    },
    # A population on struggling IPv6 paths: lame delegations, lossy
    # and jittery v6, aggressive CAD spread — the stress sweep for the
    # family-share experiment.
    "v6-challenged": {
        "os": {"linux": 0.45, "windows": 0.35, "macos": 0.10,
               "android": 0.10},
        "stacks": {"chromium": 0.50, "gecko": 0.20, "webkit": 0.10,
                   "curl": 0.08, "wget": 0.07, "hev3": 0.05},
        "cad_ms": {"kind": "uniform", "low": 100, "high": 400},
        "rd_ms": {"kind": "normal", "mean": 80, "stddev": 40,
                  "minimum": 10, "maximum": 250},
        "resolvers": {"responsive": 0.55, "slow": 0.25,
                      "lame-aaaa": 0.20},
        "impairments": {"healthy": 0.25, "jittery": 0.15,
                        "v6-jittery": 0.25, "v6-lossy": 0.25,
                        "congested": 0.10},
    },
}


def resolve_spec(text: "str | None") -> PopulationSpec:
    """The ``--spec`` knob: a preset name, ``@path`` to a JSON file,
    or an inline JSON object."""
    if text is None or text == "":
        text = "default"
    if text in PRESETS:
        return PopulationSpec.from_dict(PRESETS[text])
    if text.startswith("@"):
        return PopulationSpec.from_dict(_read_spec_file(text))
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise PopulationSpecError(f"inline spec: bad JSON: {exc}")
        return PopulationSpec.from_dict(data)
    raise PopulationSpecError(
        f"unknown population spec {text!r}: expected a preset "
        f"({', '.join(sorted(PRESETS))}), '@path/to/spec.json', or an "
        "inline JSON object")


def _read_spec_file(text: str) -> Any:
    """The JSON data of an ``@path`` spec."""
    path = Path(text[1:])
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise PopulationSpecError(f"spec file not found: {path}")
    except ValueError as exc:
        raise PopulationSpecError(f"spec file {path}: bad JSON: {exc}")


def inline_spec(text: str) -> str:
    """An ``@path`` spec as the inline JSON object its file holds
    (any other form unchanged), so the spec travels as its content:
    ``repro submit`` reads the file where the user named it, not in
    the server's working directory.  Raises
    :class:`PopulationSpecError` as :func:`resolve_spec` would."""
    if not text.startswith("@"):
        return text
    data = _read_spec_file(text)
    PopulationSpec.from_dict(data)
    return json.dumps(data)
