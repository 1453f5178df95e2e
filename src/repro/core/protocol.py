"""The simultaneous-message protocol simulator.

This is the model of Section 2: ``k`` players each draw ``q`` i.i.d.
samples from the unknown distribution, apply their strategy to produce one
bit, and a referee applies a decision rule to the k bits.  The simulator
supports:

* a fully vectorised Monte Carlo path: a protocol is an
  :class:`~repro.engine.kernels.AcceptKernel` whose ``accept_block``
  simulates one RNG block of executions as a single (trials·k × q)
  sample matrix — the workhorse of every benchmark;
* heterogeneous players (different strategies and different sample counts,
  needed by the asymmetric-rate model of Section 6.2);
* :class:`ProtocolTester`, the base of the testers that run one protocol
  per execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence

import numpy as np

from ..distributions.discrete import DiscreteDistribution
from ..engine import (
    KernelBase,
    block_seed,
    derive_root_entropy,
    plan_blocks,
    tester_fingerprint,
)
from ..exceptions import DimensionMismatchError, InvalidParameterError
from ..rng import RngLike, ensure_rng
from .base import UniformityTester
from .players import PlayerStrategy
from .referees import DecisionRule


@dataclass
class Player:
    """One network node: a strategy plus a per-player sample budget."""

    strategy: PlayerStrategy
    num_samples: int

    def __post_init__(self) -> None:
        if self.num_samples < 0:
            raise InvalidParameterError(
                f"num_samples must be >= 0, got {self.num_samples}"
            )


def protocol_bits(
    protocol: "SimultaneousProtocol",
    distribution: Any,
    trials: int,
    generator: np.random.Generator,
) -> np.ndarray:
    """The (trials × k) player-bit matrix of one RNG block.

    Draw order: one sample matrix for all players (homogeneous) or one
    matrix per player (heterogeneous), then the response bits.
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


def _protocol_accepts(
    protocol: "SimultaneousProtocol", distribution: Any, trials: int, rng: RngLike
) -> np.ndarray:
    """One RNG block of executions: player bits, then the referee.

    Every shipped referee decides row-wise, so blocks concatenate to the
    verdicts of one big batch.
    """
    bits = protocol_bits(protocol, distribution, trials, ensure_rng(rng))
    return np.asarray(protocol.referee.decide_batch(bits), dtype=bool)


def _protocol_token(owner: KernelBase) -> Dict[str, Any]:
    """The ``kind: "protocol"`` kernel token of a protocol or its tester."""
    return {**owner._token_header("protocol"), **tester_fingerprint(owner)}


class SimultaneousProtocol(KernelBase):
    """k players → one-bit messages → referee decision.

    Parameters
    ----------
    players:
        One :class:`Player` per node.  For the common homogeneous case use
        :meth:`homogeneous`.
    referee:
        The decision rule applied to the k bits.
    """

    #: Bumped when the player-bit draw order changes.
    kernel_version = 1

    def __init__(self, players: Sequence[Player], referee: DecisionRule):
        if len(players) == 0:
            raise InvalidParameterError("a protocol needs at least one player")
        if referee.num_players is not None and referee.num_players != len(players):
            raise DimensionMismatchError(
                f"referee expects {referee.num_players} players, got {len(players)}"
            )
        self.players = list(players)
        self.referee = referee

    @classmethod
    def homogeneous(
        cls,
        strategy: PlayerStrategy,
        num_players: int,
        num_samples: int,
        referee: DecisionRule,
    ) -> "SimultaneousProtocol":
        """All players share one strategy and one sample budget."""
        if num_players < 1:
            raise InvalidParameterError(f"num_players must be >= 1, got {num_players}")
        players = [Player(strategy, num_samples) for _ in range(num_players)]
        return cls(players, referee)

    # ------------------------------------------------------------------ #
    # properties                                                         #
    # ------------------------------------------------------------------ #

    @property
    def num_players(self) -> int:
        """k — the network width."""
        return len(self.players)

    @property
    def total_samples(self) -> int:
        """Total samples drawn across the network per execution."""
        return sum(player.num_samples for player in self.players)

    @property
    def relabel_invariant(self) -> bool:
        """Invariant iff every player is: the referee sees only bits."""
        return all(player.strategy.relabel_invariant for player in self.players)

    @property
    def is_homogeneous(self) -> bool:
        """Whether all players share a strategy object and sample count."""
        first = self.players[0]
        return all(
            player.strategy is first.strategy
            and player.num_samples == first.num_samples
            for player in self.players
        )

    @property
    def cache_token(self) -> Dict[str, Any]:
        return _protocol_token(self)

    @property
    def elements_per_trial(self) -> int:
        return sum(
            player.num_samples + player.strategy.draws_per_response
            for player in self.players
        )

    # ------------------------------------------------------------------ #
    # execution                                                          #
    # ------------------------------------------------------------------ #

    def accept_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Boolean accept vector for one RNG block of executions."""
        return _protocol_accepts(self, distribution, trials, rng)

    def bit_distribution(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        """Per-player empirical P[bit = 1] — the ν(G_j) of Section 4.

        Measures how much information each player's bit carries.  The
        bits are the ones :meth:`accept_batch` draws under the same seed:
        one spawned generator per RNG block.
        """
        root_entropy = derive_root_entropy(rng)
        bits = [
            protocol_bits(
                self,
                distribution,
                block.trials,
                np.random.default_rng(block_seed(root_entropy, block.index)),
            )
            for block in plan_blocks(trials)
        ]
        return np.concatenate(bits).mean(axis=0)

    def __repr__(self) -> str:
        return (
            f"SimultaneousProtocol(k={self.num_players}, "
            f"total_samples={self.total_samples}, referee={self.referee.name})"
        )


class ProtocolTester(UniformityTester):
    """A tester that runs one simultaneous protocol per execution.

    Subclasses build ``self._protocol`` in ``__init__``; the kernel
    members run it directly (one ``accept_block`` per RNG block) and key
    the cache with the ``kind: "protocol"`` token of the tester's
    fingerprint, which nests the protocol's.
    """

    _protocol: SimultaneousProtocol

    @property
    def protocol(self) -> SimultaneousProtocol:
        """The underlying simultaneous protocol (players + referee)."""
        return self._protocol

    def accept_block(
        self, distribution: DiscreteDistribution, trials: int, rng: RngLike = None
    ) -> np.ndarray:
        return _protocol_accepts(self._protocol, distribution, trials, rng)

    @property
    def relabel_invariant(self) -> bool:
        return self._protocol.relabel_invariant

    @property
    def cache_token(self) -> Dict[str, Any]:
        return _protocol_token(self)

    @property
    def elements_per_trial(self) -> int:
        return self._protocol.elements_per_trial
