"""Byzantine fault injection: adversary wrappers, attack strategies, coordination."""

from repro.byzantine.adversary import (
    ByzantineAsyncProcess,
    ByzantineSyncProcess,
    MessageMutator,
    is_float_like,
    mutate_numeric_leaves,
    replace_payload,
)
from repro.byzantine.coordinator import (
    COORDINATED_STRATEGY_NAMES,
    AdversaryCoordinator,
    CoordinatedMutator,
    collect_value_leaves,
)
from repro.byzantine.strategies import (
    CoordinateAttackStrategy,
    CrashStrategy,
    EquivocationStrategy,
    OutsideHullStrategy,
    RandomNoiseStrategy,
)

__all__ = [
    "ByzantineAsyncProcess",
    "ByzantineSyncProcess",
    "MessageMutator",
    "is_float_like",
    "mutate_numeric_leaves",
    "replace_payload",
    "COORDINATED_STRATEGY_NAMES",
    "AdversaryCoordinator",
    "CoordinatedMutator",
    "collect_value_leaves",
    "CoordinateAttackStrategy",
    "CrashStrategy",
    "EquivocationStrategy",
    "OutsideHullStrategy",
    "RandomNoiseStrategy",
]
