"""The AcceptKernel substrate: one interface for every estimator.

An *accept kernel* is the unit every Monte-Carlo estimation in this
library reduces to: a pure, trial-batched function

    ``accept_block(distribution, trials, generator) -> bool[trials]``

plus a stable ``cache_token`` naming the computation and an
``elements_per_trial`` sizing hint for memory-bounded tiling.  The engine
owns everything around the kernel — chunked streaming, backends, the
on-disk acceptance cache, metrics, and block-granular sequential early
stopping (:func:`~repro.engine.estimate.estimate_acceptance`).

Purity contract
---------------
``accept_block`` must be a pure function of ``(kernel configuration,
distribution, trials, generator)``: every random draw comes from the
passed generator, and the result depends on nothing else.  The engine
seeds one generator per RNG block (``default_rng(SeedSequence(root,
spawn_key=(b,)))``), which is what makes results bit-identical across
backends, worker counts and tile sizes — and what makes the cache token a
faithful name for the whole acceptance curve.

``cache_token`` must change whenever the sampling logic or its
calibration changes (bump the per-kernel ``kernel_version`` entry), and
must differ between kernels that could otherwise share every numeric
parameter — a closeness curve at (n, q) must never collide with a
protocol curve at the same (n, q).

Adapters
--------
:func:`as_kernel` lifts the library's existing objects onto the protocol:

* objects already exposing the three members pass through unchanged;
* chunked testers (``accept_block`` + ``resources``) are wrapped in
  :class:`TesterKernel`, which derives the token from the engine's tester
  fingerprint;
* protocol-backed testers and raw ``SimultaneousProtocol`` instances get
  a :class:`ProtocolKernel`, which draws the same player bits as
  :func:`~repro.engine.executor.monte_carlo_bits` (:func:`protocol_bits`)
  and applies the referee per block — every shipped referee is row-wise.
"""

from __future__ import annotations

from typing import Any, Dict, Protocol, runtime_checkable

import numpy as np

from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng
from .cache import tester_fingerprint

#: Bump when the kernel-token layout itself changes incompatibly.
KERNEL_SCHEMA_VERSION = 1

#: Boolean accept vectors flowing out of kernels.
BoolArray = np.ndarray


@runtime_checkable
class AcceptKernel(Protocol):
    """Structural interface of an accept kernel (see module docstring)."""

    @property
    def cache_token(self) -> Dict[str, Any]:
        """Stable JSON-serialisable identity of the computation."""
        ...

    @property
    def elements_per_trial(self) -> int:
        """Memory footprint hint (array elements per trial) for tiling."""
        ...

    def accept_block(
        self, distribution: Any, trials: int, rng: RngLike = None
    ) -> BoolArray:
        """Boolean accept vector for one RNG block (pure in its inputs)."""
        ...


def kernel_label(kernel: AcceptKernel) -> str:
    """Short per-kernel metrics label derived from the cache token."""
    token = kernel.cache_token
    label = token.get("class") or token.get("kind") or "kernel"
    return str(label)


class BernoulliKernel:
    """A calibrated fixture kernel with *known* acceptance probability.

    Accepts each trial independently with probability ``probability``,
    ignoring the distribution argument.  This is the canonical
    calibration instrument for the engine's sequential tests: the true
    rate is exact, so SPRT verdicts and error rates can be checked
    against ground truth.
    """

    def __init__(self, probability: float):
        if not 0.0 <= probability <= 1.0:
            raise InvalidParameterError(
                f"probability must be in [0,1], got {probability}"
            )
        self.probability = float(probability)

    @property
    def cache_token(self) -> Dict[str, Any]:
        return {
            "schema": KERNEL_SCHEMA_VERSION,
            "kind": "bernoulli",
            "class": "BernoulliKernel",
            "kernel_version": 1,
            "probability": self.probability,
        }

    @property
    def elements_per_trial(self) -> int:
        return 1

    def accept_block(
        self, distribution: Any, trials: int, rng: RngLike = None
    ) -> BoolArray:
        generator = ensure_rng(rng)
        return generator.random(trials) < self.probability


class TesterKernel:
    """Adapter lifting a chunked tester (``accept_block`` + ``resources``).

    The wrapped tester's own ``accept_block`` *is* the kernel; this class
    only supplies the token (from the engine's tester fingerprint, so
    calibration state is covered) and the tiling hint (the tester's total
    sample budget per execution).
    """

    def __init__(self, tester: Any):
        if not hasattr(tester, "accept_block"):
            raise InvalidParameterError(
                f"{type(tester).__name__} has no accept_block kernel"
            )
        self.tester = tester

    @property
    def cache_token(self) -> Dict[str, Any]:
        # Testers that change their accept_block draw order bump a class
        # attribute kernel_version so stale cached curves cannot be read.
        return {
            "schema": KERNEL_SCHEMA_VERSION,
            "kind": "tester",
            "kernel_version": int(getattr(self.tester, "kernel_version", 1)),
            **tester_fingerprint(self.tester),
        }

    @property
    def elements_per_trial(self) -> int:
        # Prefer the tester's own footprint hint: vectorised kernels can
        # materialise more than one element per drawn sample (e.g. public
        # hash tables), and the hint is what keeps tiles memory-bounded.
        hint = getattr(self.tester, "elements_per_trial", None)
        if hint is not None:
            return max(1, int(hint))
        return int(self.tester.resources.total_samples)

    def accept_block(
        self, distribution: Any, trials: int, rng: RngLike = None
    ) -> BoolArray:
        return np.asarray(self.tester.accept_block(distribution, trials, rng))

    def __repr__(self) -> str:
        return f"TesterKernel({self.tester!r})"


def protocol_bits(
    protocol: Any, distribution: Any, trials: int, generator: np.random.Generator
) -> np.ndarray:
    """The (trials × k) player-bit matrix of one RNG block.

    Draw order: one sample matrix for all players (homogeneous) or one
    matrix per player (heterogeneous), then the response bits.  Both
    :func:`~repro.engine.executor.monte_carlo_bits` and
    :class:`ProtocolKernel` draw through here, which keeps them
    bit-identical under the same root entropy.
    """
    k = protocol.num_players
    if protocol.is_homogeneous:
        strategy = protocol.players[0].strategy
        q = protocol.players[0].num_samples
        samples = distribution.sample_matrix(trials * k, q, generator)
        return strategy.respond_batch(samples, generator).reshape(trials, k)
    bits = np.empty((trials, k), dtype=np.int64)
    for index, player in enumerate(protocol.players):
        samples = distribution.sample_matrix(trials, player.num_samples, generator)
        bits[:, index] = player.strategy.respond_batch(samples, generator)
    return bits


class ProtocolKernel:
    """Block kernel for protocol-backed testers and raw protocols.

    Per block it draws the player bits with :func:`protocol_bits` and
    applies the referee, so estimates through this kernel are
    bit-identical to ``protocol.run_batch(...)`` under the same root
    entropy (all shipped referees decide row-wise).
    """

    def __init__(self, owner: Any):
        protocol = owner
        if not (hasattr(owner, "players") and hasattr(owner, "referee")):
            protocol = getattr(owner, "_protocol", None)
            if protocol is None:
                raise InvalidParameterError(
                    f"{type(owner).__name__} exposes no protocol to run"
                )
        self._owner = owner
        self._protocol = protocol

    @property
    def cache_token(self) -> Dict[str, Any]:
        return {
            "schema": KERNEL_SCHEMA_VERSION,
            "kind": "protocol",
            "kernel_version": 1,
            **tester_fingerprint(self._owner),
        }

    @property
    def elements_per_trial(self) -> int:
        return int(self._protocol.total_samples)

    def accept_block(
        self, distribution: Any, trials: int, rng: RngLike = None
    ) -> BoolArray:
        protocol = self._protocol
        bits = protocol_bits(protocol, distribution, trials, ensure_rng(rng))
        return np.asarray(protocol.referee.decide_batch(bits), dtype=bool)

    def __repr__(self) -> str:
        return f"ProtocolKernel({type(self._owner).__name__})"


class StreamingKernel:
    """Adapter lifting a streaming tester (``init_state``/``update``/
    ``finalize``) onto the kernel protocol.

    Two draw modes:

    * ``draw="matrix"`` (default) — one ``sample_matrix(trials, q)``
      per block, streamed through ``update`` in column chunks.  The
      flat draw is identical to the batch testers', and streaming
      verdicts are partition-invariant, so results are **bit-identical
      to the batch counterpart** for any chunk width; the chunk width
      is therefore deliberately *absent* from the cache token.
    * ``draw="chunked"`` — each chunk is its own
      ``sample_matrix(trials, w)`` draw, so total memory stays bounded
      by the chunk (true constant-memory streaming).  The element
      *assignment* differs from the batch draw order, so the token
      carries the draw mode and chunk width and equivalence is pinned
      to the streaming tester's own batch oracle, not the batch tester.
    """

    def __init__(
        self, streaming: Any, chunk: int | None = None, draw: str = "matrix"
    ):
        for member in ("init_state", "update", "finalize"):
            if not hasattr(streaming, member):
                raise InvalidParameterError(
                    f"{type(streaming).__name__} has no {member}; not a "
                    "streaming tester"
                )
        if draw not in ("matrix", "chunked"):
            raise InvalidParameterError(
                f"draw must be 'matrix' or 'chunked', got {draw!r}"
            )
        if chunk is not None and chunk < 1:
            raise InvalidParameterError(f"chunk must be >= 1, got {chunk}")
        if draw == "chunked" and chunk is None:
            raise InvalidParameterError(
                "draw='chunked' requires an explicit chunk width"
            )
        self.streaming = streaming
        self.chunk = None if chunk is None else int(chunk)
        self.draw = draw

    @property
    def cache_token(self) -> Dict[str, Any]:
        token = dict(self.streaming.cache_token)
        token.setdefault("schema", KERNEL_SCHEMA_VERSION)
        token.setdefault("kind", "streaming")
        if self.draw == "chunked":
            # Chunked draws change the element assignment, hence the
            # acceptance curve; matrix draws are chunk-invariant.
            token["draw"] = "chunked"
            token["chunk"] = int(self.chunk or 0)
        return token

    @property
    def elements_per_trial(self) -> int:
        q = int(self.streaming.q)
        state_elements = (int(self.streaming.state_bytes) + 7) // 8
        if self.draw == "chunked":
            return max(1, int(self.chunk or 1)) + state_elements
        return q + state_elements

    def accept_block(
        self, distribution: Any, trials: int, rng: RngLike = None
    ) -> BoolArray:
        generator = ensure_rng(rng)
        q = int(self.streaming.q)
        state = self.streaming.init_state(trials)
        if self.draw == "matrix":
            matrix = distribution.sample_matrix(trials, q, generator)
            width = q if self.chunk is None else self.chunk
            for start in range(0, q, width):
                self.streaming.update(state, matrix[:, start : start + width])
        else:
            width = int(self.chunk or q)
            for start in range(0, q, width):
                block = distribution.sample_matrix(
                    trials, min(width, q - start), generator
                )
                self.streaming.update(state, block)
        return np.asarray(self.streaming.finalize(state), dtype=bool)

    def __repr__(self) -> str:
        return f"StreamingKernel({self.streaming!r}, draw={self.draw})"


def _is_streaming(obj: Any) -> bool:
    return (
        hasattr(obj, "init_state")
        and hasattr(obj, "update")
        and hasattr(obj, "finalize")
    )


def _satisfies_protocol(obj: Any) -> bool:
    return (
        hasattr(obj, "accept_block")
        and hasattr(obj, "cache_token")
        and hasattr(obj, "elements_per_trial")
    )


def as_kernel(obj: Any) -> AcceptKernel:
    """Lift any simulatable object onto the :class:`AcceptKernel` protocol.

    Resolution order: native kernels pass through; streaming testers
    (``init_state``/``update``/``finalize``) are wrapped in
    :class:`StreamingKernel`; chunked testers are wrapped in
    :class:`TesterKernel`; protocol-backed testers (and raw protocols)
    get a :class:`ProtocolKernel`.  Anything else is an error — there is
    deliberately no fallback that would hide a sequential-RNG estimator
    from the engine's determinism contract.
    """
    if _satisfies_protocol(obj):
        return obj  # type: ignore[no-any-return]
    if _is_streaming(obj):
        return StreamingKernel(obj)
    if hasattr(obj, "accept_block") and hasattr(obj, "resources"):
        return TesterKernel(obj)
    if (hasattr(obj, "players") and hasattr(obj, "referee")) or hasattr(
        obj, "_protocol"
    ):
        return ProtocolKernel(obj)
    raise InvalidParameterError(
        f"{type(obj).__name__} cannot be adapted to an AcceptKernel: "
        "expose accept_block(distribution, trials, rng) plus cache_token/"
        "elements_per_trial (or resources), or back it with a protocol"
    )
