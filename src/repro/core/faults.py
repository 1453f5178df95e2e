"""Fault models for player strategies: the robustness face of locality.

The decision rules the paper compares differ not only in sample cost but
in *fault tolerance*, and the two are opposite sides of the same design
choice:

* the **AND rule** lets any single node veto — so a single node stuck at
  "alarm" destroys completeness forever, and a single node stuck at
  "accept" destroys nothing but its own contribution;
* the **T-threshold rule** tolerates up to ``T − 1`` stuck alarms (and a
  calibrated midpoint threshold tolerates a constant fraction of either
  fault), at the price of aggregation.

This module wraps any :class:`~repro.core.players.PlayerStrategy` with the
standard fault models (stuck-at, crash-as-silence treated as accept, and
Byzantine random flipping) so the trade-off can be measured; experiment
E19 regenerates the comparison.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import InvalidParameterError
from ..rng import RngLike, ensure_rng
from .players import PlayerStrategy


class StuckAtPlayer(PlayerStrategy):
    """A faulty node whose message is stuck at a constant bit.

    ``stuck_bit = 0`` models a node that always raises the alarm (a
    false-alarm fault); ``stuck_bit = 1`` a node that never alarms (a
    crashed sensor whose silence reads as "all clear").
    """

    def __init__(self, stuck_bit: int):
        if stuck_bit not in (0, 1):
            raise InvalidParameterError(f"stuck_bit must be 0 or 1, got {stuck_bit}")
        self.stuck_bit = int(stuck_bit)

    def respond_batch(self, samples: np.ndarray, rng: RngLike = None) -> np.ndarray:
        return np.full(np.shape(samples)[0], self.stuck_bit, dtype=np.int64)

    @property
    def name(self) -> str:
        return f"StuckAtPlayer({self.stuck_bit})"


class FlippingPlayer(PlayerStrategy):
    """A Byzantine node that flips its honest message with probability p.

    Wraps an honest strategy; ``flip_probability = 1`` inverts every
    message, ``0.5`` makes the node pure noise.
    """

    def __init__(self, honest: PlayerStrategy, flip_probability: float):
        if not 0.0 <= flip_probability <= 1.0:
            raise InvalidParameterError(
                f"flip_probability must be in [0,1], got {flip_probability}"
            )
        self.honest = honest
        self.flip_probability = float(flip_probability)

    def respond_batch(self, samples: np.ndarray, rng: RngLike = None) -> np.ndarray:
        generator = ensure_rng(rng)
        bits = self.honest.respond_batch(samples, generator)
        flips = generator.random(bits.shape) < self.flip_probability
        return np.where(flips, 1 - bits, bits).astype(np.int64)

    @property
    def name(self) -> str:
        return f"FlippingPlayer(p={self.flip_probability:g}, {self.honest.name})"


def inject_faults(
    tester,
    num_stuck_alarm: int = 0,
    num_stuck_accept: int = 0,
    num_byzantine: int = 0,
    flip_probability: float = 0.5,
):
    """Return a copy of a protocol-backed tester with faulty players.

    Works on any tester exposing a ``protocol`` attribute
    (:class:`~repro.core.testers.ThresholdRuleTester`,
    :class:`~repro.core.testers.AndRuleTester`, ...).  Faults are assigned
    to the lowest player indices: first the stuck-alarm nodes, then the
    stuck-accept nodes, then the Byzantine flippers; remaining players
    stay honest.  The referee (and its calibration) is left untouched —
    exactly the situation of a deployed network experiencing faults it
    was not calibrated for.
    """
    import copy

    from .protocol import Player, SimultaneousProtocol

    protocol = getattr(tester, "protocol", None)
    if protocol is None:
        raise InvalidParameterError(
            f"{type(tester).__name__} does not expose a protocol to fault-inject"
        )
    k = protocol.num_players
    total_faulty = num_stuck_alarm + num_stuck_accept + num_byzantine
    if total_faulty > k:
        raise InvalidParameterError(
            f"{total_faulty} faulty players exceed network size {k}"
        )
    players = []
    for index, player in enumerate(protocol.players):
        if index < num_stuck_alarm:
            strategy: PlayerStrategy = StuckAtPlayer(0)
        elif index < num_stuck_alarm + num_stuck_accept:
            strategy = StuckAtPlayer(1)
        elif index < total_faulty:
            strategy = FlippingPlayer(player.strategy, flip_probability)
        else:
            strategy = player.strategy
        players.append(Player(strategy, player.num_samples))
    faulty_tester = copy.copy(tester)
    faulty_tester._protocol = SimultaneousProtocol(players, protocol.referee)
    return faulty_tester
