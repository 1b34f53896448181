"""Declarative trial specifications and results.

A :class:`TrialSpec` fully describes one protocol execution — protocol,
workload generator, adversary strategy, delivery scheduler, the ``(n, d, f)``
configuration, ``epsilon`` and seeds — as plain picklable data, so trials can
be expanded from grids, shipped to worker processes, and replayed exactly.
:class:`TrialResult` is the corresponding flat record: the spec fields plus
the measured outcome (agreement/validity verdicts, round/message/drop
counters, the first honest decision) in a JSON-serialisable shape.  The JSONL
row helpers (:class:`JsonlSink`, :func:`iter_jsonl`, :func:`read_jsonl`,
:func:`strip_timing`) live beside the row format they read and write.

Seed discipline: a spec carries one root ``seed``.  Unless explicitly
overridden, the workload, adversary and scheduler seeds are derived from it
with ``np.random.SeedSequence(seed).spawn(3)``, so (a) the three randomness
consumers are statistically independent and (b) a trial is a pure function of
its spec — the same spec produces the same result on any worker.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

# A name from ``numpy.random``, so importing the engine loads it: numpy loads
# that subpackage on first use (~17 ms), which ``repro serve`` would otherwise
# pay inside the first campaign it runs.
from numpy.random import SeedSequence

from repro.exceptions import ConfigurationError

__all__ = [
    "PROTOCOLS",
    "JsonlSink",
    "TrialResult",
    "TrialSpec",
    "iter_jsonl",
    "read_jsonl",
    "strip_timing",
]

# Protocol name -> (model, needs_epsilon).  The model decides which runtime
# (and therefore which result counters) a trial uses.
PROTOCOLS: dict[str, tuple[str, bool]] = {
    "exact": ("sync", False),
    "coordinatewise": ("sync", False),
    "approx": ("async", True),
    "restricted_sync": ("sync", True),
    "restricted_async": ("async", True),
}

_PARAM_FIELDS = ("workload_params", "adversary_params", "scheduler_params")


def _freeze_params(params: Mapping[str, Any] | tuple | None) -> tuple[tuple[str, Any], ...]:
    """Normalise a parameter mapping into a sorted, hashable tuple of pairs."""
    if not params:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    return tuple(sorted((str(key), value) for key, value in items))


@lru_cache(maxsize=4096, typed=True)
def _derived_seeds(seed: int) -> tuple[int, int, int]:
    """The seeds ``SeedSequence(seed).spawn(3)`` derives, cached per seed and type (``5.0`` fails).

    Child ``i`` of a spawn is ``SeedSequence(seed, spawn_key=(i,))``; building
    the three children directly skips the parent sequence.
    """
    return tuple(  # type: ignore[return-value]
        int(SeedSequence(seed, spawn_key=(child,)).generate_state(1, dtype=np.uint32)[0])
        for child in range(3)
    )


@dataclass(frozen=True)
class TrialSpec:
    """One protocol execution, described declaratively.

    Attributes:
        protocol: one of :data:`PROTOCOLS`.
        workload: input-generator name (see :mod:`repro.engine.factories`).
        adversary: strategy name (:data:`~repro.engine.factories.ADVERSARY_NAMES`),
            or ``"none"`` for a fault-free run.  Independent strategies build
            one mutator per faulty id; the coordinated names (``split_world``,
            ``hull_collapse``, ``adaptive_extreme``, ``theorem4_scenario``)
            build one :class:`~repro.byzantine.coordinator.AdversaryCoordinator`
            owning the whole faulty set, with ``adversary_params`` carrying
            its strategy parameters (``target``, ``push_scale``,
            ``crash_round``, ``slow_processes``, …).
        scheduler: delivery-scheduler name (asynchronous protocols only; the
            ``theorem4_scenario`` adversary overrides it with the lagging
            scheduler its lower-bound execution needs).
        process_count / dimension / fault_bound: the (n, d, f) configuration.
        epsilon: agreement parameter for approximate protocols.
        seed: root seed; workload/adversary/scheduler seeds derive from it
            via ``SeedSequence.spawn`` unless overridden below.
        workload_seed / adversary_seed / scheduler_seed: explicit overrides.
        max_rounds_override: cap the protocol's round count (approximate
            protocols; ``None`` runs the static termination rule).
        workload_params / adversary_params / scheduler_params: extra keyword
            arguments for the respective factory, as sorted ``(key, value)``
            pairs so that specs stay hashable and picklable.
        record_history: keep per-round state histories on the result (memory
            heavy; used by convergence experiments).
        trial_index: position of this trial within its campaign.
    """

    protocol: str
    workload: str
    adversary: str = "none"
    scheduler: str = "random"
    process_count: int = 4
    dimension: int = 1
    fault_bound: int = 1
    epsilon: float = 0.2
    seed: int = 0
    workload_seed: int | None = None
    adversary_seed: int | None = None
    scheduler_seed: int | None = None
    max_rounds_override: int | None = None
    workload_params: tuple[tuple[str, Any], ...] = ()
    adversary_params: tuple[tuple[str, Any], ...] = ()
    scheduler_params: tuple[tuple[str, Any], ...] = ()
    record_history: bool = False
    trial_index: int = 0

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; known: {', '.join(sorted(PROTOCOLS))}"
            )
        for name in _PARAM_FIELDS:
            object.__setattr__(self, name, _freeze_params(getattr(self, name)))

    # -- derived views ---------------------------------------------------------

    @property
    def model(self) -> str:
        """``"sync"`` or ``"async"``."""
        return PROTOCOLS[self.protocol][0]

    def resolved_seeds(self) -> tuple[int, int, int]:
        """Return ``(workload_seed, adversary_seed, scheduler_seed)``.

        Unset seeds are derived deterministically from the root ``seed`` with
        ``SeedSequence.spawn``, so they are independent streams but a pure
        function of the spec.
        """
        explicit = (self.workload_seed, self.adversary_seed, self.scheduler_seed)
        resolved = tuple(
            value if value is not None else fallback
            for value, fallback in zip(explicit, _derived_seeds(self.seed))
        )
        return resolved  # type: ignore[return-value]

    def params(self, which: str) -> dict[str, Any]:
        """Return the ``which`` parameter pairs (``"workload"`` etc.) as a dict."""
        return dict(getattr(self, f"{which}_params"))

    # -- (de)serialisation -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-serialisable dict (parameter tuples become dicts)."""
        record = {name: getattr(self, name) for name in self.WIRE_FIELDS}
        for name in _PARAM_FIELDS:
            record[name] = dict(record[name])
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "TrialSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys rejected)."""
        unknown = record.keys() - _SPEC_FIELD_SET
        if unknown:
            raise ConfigurationError(f"unknown TrialSpec fields: {sorted(unknown)}")
        return cls(**dict(record))

    def with_index(self, trial_index: int) -> "TrialSpec":
        """Return a copy at a different campaign position."""
        return replace(self, trial_index=trial_index)

    # -- compact wire form (worker-pool transport) -----------------------------

    def to_wire(self) -> tuple:
        """Return the spec as a positional value tuple (field order = ``WIRE_FIELDS``).

        The wire form is what the persistent worker pool ships instead of
        pickled dataclass instances: a batch is one base tuple plus per-trial
        deltas, so field names, class metadata and constant values cross the
        process boundary once per unit rather than once per trial.
        """
        return tuple(getattr(self, name) for name in self.WIRE_FIELDS)

    @classmethod
    def from_wire(cls, values: Sequence[Any]) -> "TrialSpec":
        """Rebuild a spec from :meth:`to_wire` output (exact inverse)."""
        return cls(*values)


# Positional field order of the wire form (also the dataclass __init__ order).
# Assigned after the class body so the dataclass machinery does not mistake it
# for a field.
TrialSpec.WIRE_FIELDS = tuple(spec_field.name for spec_field in fields(TrialSpec))
_SPEC_FIELD_SET = frozenset(TrialSpec.WIRE_FIELDS)

_PLAIN_SCALARS = frozenset({str, int, float, bool, type(None)})


def _jsonify(value: Any) -> Any:
    """Coerce numpy scalars/arrays into plain Python so rows serialise stably.

    Exact builtin types are answered before any ``isinstance`` check: the
    ``Mapping`` test goes through the ABC subclass hooks, and almost every
    value a spec or row carries is a plain scalar, dict, list or tuple.
    Subclasses (``numpy.float64`` is a ``float``) take the general branches.
    """
    kind = type(value)
    if kind in _PLAIN_SCALARS:
        return value
    if kind is dict:
        return {str(key): _jsonify(item) for key, item in value.items()}
    if kind is list or kind is tuple:
        return [_jsonify(item) for item in value]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonify(item) for item in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonify(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class TrialResult:
    """Flat outcome record of one executed trial.

    Fields that do not apply to a protocol (e.g. ``deliveries`` for a
    synchronous run) are ``None``.  ``state_histories`` is kept in memory for
    reductions but excluded from the serialised row; ``elapsed_ms`` is the
    only non-deterministic field, so determinism comparisons strip it.
    """

    spec: TrialSpec
    status: str  # "ok" | "error"
    error: str | None = None
    agreement: bool | None = None
    validity: bool | None = None
    max_disagreement: float | None = None
    max_hull_distance: float | None = None
    rounds: int | None = None
    deliveries: int | None = None
    messages_sent: int | None = None
    messages_dropped: int | None = None
    decision: tuple[float, ...] | None = None
    state_histories: dict[int, list[np.ndarray]] | None = field(
        default=None, repr=False, compare=False
    )
    elapsed_ms: float = 0.0

    TIMING_FIELDS = ("elapsed_ms",)

    @property
    def ok(self) -> bool:
        """True when the trial executed without raising."""
        return self.status == "ok"

    def to_row(self) -> dict[str, Any]:
        """Flatten spec + outcome into one JSON-serialisable row."""
        row = {f"spec_{key}": _jsonify(value) for key, value in self.spec.to_dict().items()}
        for name in _OUTCOME_FIELDS:
            row[name] = _jsonify(getattr(self, name))
        return row

    def to_json(self) -> str:
        """One deterministic JSONL line (keys sorted, timing field included).

        The line :meth:`kept_row` kept is returned instead of encoding the
        row again: the store keeps the line it writes, so a committed row is
        served (``/rows``, a JSONL sink) as the same string.  The result is
        frozen, so the line cannot go stale.
        """
        line = self.__dict__.get("_json_line")
        return json.dumps(self.to_row(), sort_keys=True) if line is None else line

    def kept_row(self) -> tuple[dict[str, Any], str]:
        """Return ``(row, line)``, the row built once and its line kept for :meth:`to_json`."""
        row = self.to_row()
        line = self.__dict__.get("_json_line")
        if line is None:
            line = self.__dict__["_json_line"] = json.dumps(row, sort_keys=True)
        return row, line

    @classmethod
    def from_row(cls, row: Mapping[str, Any], spec: TrialSpec | None = None) -> "TrialResult":
        """Rebuild a result from :meth:`to_row` / :meth:`to_json` output.

        The exact inverse of the row serialisation (needed by the results
        store): ``from_row(result.to_row()).to_row() == result.to_row()``,
        error rows included.  ``state_histories`` is the one lossy field — it
        is never serialised, so it comes back ``None``.  Unknown keys are
        rejected rather than dropped: a row that does not round-trip is a
        schema mismatch, not data.

        ``spec`` attaches the result to a spec the caller already holds (a
        store hit served under the requested ``trial_index``): the row's
        ``spec_*`` columns must then name exactly the spec's fields, but are
        not parsed into a second spec.
        """
        columns = row.keys()
        unknown = columns - _ROW_COLUMNS
        for key in unknown:
            if not key.startswith("spec_"):
                raise ConfigurationError(f"unknown TrialResult row field {key!r}")
        if "status" not in columns:
            raise ConfigurationError("TrialResult row is missing the 'status' field")
        outcome = {name: row[name] for name in _OUTCOME_FIELDS if name in columns}
        if spec is None:
            spec_record = {
                key[len("spec_") :]: value for key, value in row.items() if key.startswith("spec_")
            }
            try:
                spec = TrialSpec.from_dict(spec_record)
            except TypeError as error:
                raise ConfigurationError(f"malformed spec fields in row: {error}") from error
        elif unknown or not columns >= _SPEC_COLUMNS:
            mismatched = sorted(unknown | (_SPEC_COLUMNS - columns))
            raise ConfigurationError(f"malformed spec fields in row: {mismatched}")
        if outcome.get("decision") is not None:
            outcome["decision"] = tuple(float(value) for value in outcome["decision"])
        return cls(spec=spec, **outcome)


# The outcome half of a row: every result field but the spec and the
# never-serialised histories.
_OUTCOME_FIELDS = tuple(
    result_field.name
    for result_field in fields(TrialResult)
    if result_field.name not in ("spec", "state_histories")
)
_SPEC_COLUMNS = frozenset(f"spec_{name}" for name in TrialSpec.WIRE_FIELDS)
_ROW_COLUMNS = _SPEC_COLUMNS | frozenset(_OUTCOME_FIELDS)


class JsonlSink:
    """Append trial rows to a JSON-lines file, one row per trial, as they arrive."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.rows_written = 0
        self._handle = None

    def __enter__(self) -> "JsonlSink":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        return self

    def write(self, result: TrialResult) -> None:
        if self._handle is None:
            raise RuntimeError("JsonlSink must be entered before writing")
        self._handle.write(result.to_json() + "\n")
        self.rows_written += 1

    def __exit__(self, *exc_info: object) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def iter_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    """Stream a campaign JSONL file one row dictionary at a time.

    Constant memory in the file size — the row consumers (equivalence
    comparisons, store imports) never need the whole file as a list.  Blank
    lines are skipped; a line that is not valid JSON (a torn tail, say)
    raises :class:`~repro.exceptions.ConfigurationError` naming the file and
    the line.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"{path}: line {number}: not valid JSON ({error})"
                ) from error
            yield row


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Load every row of a campaign JSONL file back into dictionaries."""
    return list(iter_jsonl(path))


def strip_timing(rows: Iterable[dict[str, Any]]) -> list[str]:
    """Canonicalise rows for determinism comparison: drop timing fields, sort keys.

    Two campaign runs with the same seed must produce equal ``strip_timing``
    output regardless of worker count; ``TrialResult.TIMING_FIELDS`` is the
    single list of fields allowed to differ.
    """
    canonical = []
    for row in rows:
        kept = {key: value for key, value in row.items() if key not in TrialResult.TIMING_FIELDS}
        canonical.append(json.dumps(kept, sort_keys=True))
    return canonical
