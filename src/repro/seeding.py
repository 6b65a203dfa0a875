"""Stable per-run seed derivation.

Reproducibility demands that the seed of every isolated test run be a
pure function of the campaign seed and the run coordinates.  Python's
built-in ``hash()`` is salted by ``PYTHONHASHSEED`` for strings, so a
tuple hash differs between interpreter invocations — and between pool
workers started with ``spawn`` — silently breaking replay.  Every run
seed in the codebase therefore goes through :func:`stable_run_seed`,
which digests a canonical rendering of the coordinates instead.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from typing import Callable, Union

SeedPart = Union[int, float, str, bool, None]

#: Run seeds are 31-bit so they fit any RNG seed slot comfortably.
_SEED_MASK = 0x7FFFFFFF


def render_part(part: SeedPart) -> str:
    """The type-tagged rendering of one primitive: ``1``, ``1.0``,
    ``"1"`` and ``True`` all render differently.  Shared by run seeds
    and by the store's :func:`~repro.testbed.store.canonical`."""
    return f"{type(part).__name__}:{part!r}"


def _seed_text(parts: "tuple") -> bytes:
    return "\x1f".join(map(render_part, parts)).encode("utf-8")


def stable_run_seed(*parts: SeedPart) -> int:
    """A 31-bit seed digested from the canonical form of ``parts``.

    Unlike ``hash(tuple(...))`` the result is identical across
    interpreter invocations, ``PYTHONHASHSEED`` values, and process
    pool workers, so campaigns replay exactly no matter where each run
    executes.
    """
    return zlib.crc32(_seed_text(parts)) & _SEED_MASK


def run_seeder(*prefix: SeedPart) -> "Callable[..., int]":
    """:func:`stable_run_seed` for runs sharing the leading ``prefix``
    parts, digested once; the function returned takes the
    :func:`render_part` texts of the other parts:
    ``run_seeder(*prefix)(*map(render_part, rest)) ==
    stable_run_seed(*prefix, *rest)``."""
    state = zlib.crc32(_seed_text(prefix))
    return lambda *rendered: (zlib.crc32(
        "".join(["\x1f" + text for text in rendered]).encode("utf-8"),
        state) & _SEED_MASK)


def stable_unit(*parts: SeedPart) -> float:
    """A deterministic uniform draw in ``[0, 1)`` from ``parts``.

    The fault-injection and retry machinery needs reproducible
    pseudo-randomness (which entries a fault plan targets, how much
    jitter a retry sleeps) that is identical across interpreter
    invocations and pool workers — same contract as
    :func:`stable_run_seed`, rescaled to the unit interval.
    """
    return stable_run_seed(*parts) / float(_SEED_MASK + 1)


def digest_unit(*parts: SeedPart) -> float:
    """A deterministic uniform draw in ``[0, 1)`` from the SHA-256 of
    ``parts``.  Unlike the CRC behind :func:`stable_unit`, draws for
    parts that differ in one field (a fault kind) are independent —
    what a fault plan's per-kind targeting needs."""
    digest = hashlib.sha256(_seed_text(parts)).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def derive_rng(*parts: SeedPart) -> random.Random:
    """An independent :class:`random.Random` derived from ``parts``.

    Where :func:`stable_run_seed` hands out 31-bit seeds for whole
    runs, sampling subsystems need a *stream* of reproducible draws per
    coordinate — e.g. ``(population seed, field label, sample index)``
    — with no correlation between adjacent coordinates.  The full
    SHA-256 digest of the canonical part rendering seeds the generator,
    so every coordinate gets its own well-mixed stream and the mapping
    is identical across interpreters, ``PYTHONHASHSEED`` values, and
    pool workers.
    """
    digest = hashlib.sha256(_seed_text(parts)).digest()
    return random.Random(int.from_bytes(digest, "big"))


def backoff_jitter(seed: int, attempt: int, base: float = 0.05,
                   cap: float = 2.0) -> float:
    """Seconds to sleep before retry ``attempt`` (0-based): seeded,
    bounded exponential backoff with jitter.

    The window doubles per attempt from ``base`` up to ``cap``; the
    delay is drawn uniformly from the upper half of the window
    (``[window/2, window)``), so retries neither stampede in lockstep
    nor collapse to zero.  The draw is a pure function of
    ``(seed, attempt)``, which makes every retry schedule replayable —
    a chaos run and its re-run back off at the exact same instants.
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0: {attempt}")
    window = min(cap, base * (2 ** attempt))
    return window * (0.5 + 0.5 * stable_unit(seed, "backoff", attempt))
