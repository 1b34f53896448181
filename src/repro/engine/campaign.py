"""Campaigns: parameter grids expanded into deterministic trial lists.

A :class:`Campaign` is nothing more than a named, ordered tuple of
:class:`~repro.engine.spec.TrialSpec` objects.  The interesting part is how it
is built:

* :meth:`Campaign.from_grid` expands the cross product of protocols,
  workloads, adversaries, schedulers, ``(n, d, f)`` configurations, epsilons
  and repeats, in a fixed nesting order, and derives one root seed per trial
  with ``np.random.SeedSequence(base_seed).spawn(len(trials))`` — so trial
  seeds are statistically independent, stable under re-expansion, and the
  whole campaign is a pure function of its declaration.
* :meth:`Campaign.from_file` reads either an explicit trial list or a grid
  declaration from JSON, so large sweeps can live in version control.

Axes that a protocol does not consume collapse instead of multiplying: a sync
trial's scheduler is normalised to ``"random"`` (it is never consulted), an
exact trial uses only the first epsilon value, and duplicate specs produced by
those collapses are skipped — keeping grid sizes honest.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.engine.factories import minimum_processes_for
from repro.engine.spec import PROTOCOLS, TrialSpec
from repro.exceptions import ConfigurationError

__all__ = ["Campaign", "parameter_grid"]


def parameter_grid(**axes: Sequence[Any]) -> list[dict[str, Any]]:
    """Expand named axes into their cross product, in declaration order.

    ``parameter_grid(dimension=(1, 2), fault_bound=(1,))`` yields
    ``[{"dimension": 1, "fault_bound": 1}, {"dimension": 2, "fault_bound": 1}]``.
    The last axis varies fastest, matching nested-loop order — analytic
    experiments declare their sweep with this instead of hand-rolled loops.
    """
    points: list[dict[str, Any]] = [{}]
    for name, values in axes.items():
        points = [{**point, name: value} for point in points for value in values]
    return points


def _seed_ints(base_seed: int, count: int) -> list[int]:
    """Derive ``count`` independent 32-bit trial seeds from ``base_seed``."""
    children = np.random.SeedSequence(base_seed).spawn(count)
    return [int(child.generate_state(1, dtype=np.uint32)[0]) for child in children]


@dataclass(frozen=True)
class Campaign:
    """A named, ordered collection of trial specs."""

    name: str
    specs: tuple[TrialSpec, ...]

    def __len__(self) -> int:
        return len(self.specs)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_specs(cls, name: str, specs: Sequence[TrialSpec]) -> "Campaign":
        """Wrap explicit specs, re-numbering ``trial_index`` sequentially."""
        indexed = tuple(spec.with_index(index) for index, spec in enumerate(specs))
        return cls(name=name, specs=indexed)

    @classmethod
    def from_grid(
        cls,
        name: str,
        *,
        protocols: Sequence[str] = ("exact",),
        workloads: Sequence[str] = ("uniform_box",),
        adversaries: Sequence[str] = ("none",),
        schedulers: Sequence[str] = ("random",),
        dimensions: Sequence[int] = (2,),
        fault_bounds: Sequence[int] = (1,),
        process_counts: Sequence[int] | None = None,
        epsilons: Sequence[float] = (0.2,),
        repeats: int = 1,
        base_seed: int = 0,
        max_rounds_override: int | None = None,
    ) -> "Campaign":
        """Expand the cross product of every axis into a deterministic trial list.

        When ``process_counts`` is None, each trial uses the paper's minimum
        ``n`` for its protocol at its ``(d, f)`` — the "at the resilience
        bound" setting every theorem is stated at.
        """
        if repeats < 1:
            raise ConfigurationError("repeats must be at least 1")
        unknown = set(protocols) - set(PROTOCOLS)
        if unknown:
            raise ConfigurationError(f"unknown protocols in grid: {sorted(unknown)}")
        specs: list[TrialSpec] = []
        seen: set[TrialSpec] = set()
        for repeat in range(repeats):
            for protocol in protocols:
                is_async = PROTOCOLS[protocol][0] == "async"
                for workload in workloads:
                    for adversary in adversaries:
                        for scheduler in schedulers if is_async else ("random",):
                            for dimension in dimensions:
                                for fault_bound in fault_bounds:
                                    counts = (
                                        process_counts
                                        if process_counts is not None
                                        else (minimum_processes_for(protocol, dimension, fault_bound),)
                                    )
                                    for process_count in counts:
                                        # epsilon only drives approximate
                                        # protocols; collapse the axis for the
                                        # rest so exact trials are not
                                        # duplicated per epsilon value.
                                        trial_epsilons = (
                                            epsilons if PROTOCOLS[protocol][1] else epsilons[:1]
                                        )
                                        for epsilon in trial_epsilons:
                                            spec = TrialSpec(
                                                protocol=protocol,
                                                workload=workload,
                                                adversary=adversary,
                                                scheduler=scheduler,
                                                process_count=process_count,
                                                dimension=dimension,
                                                fault_bound=fault_bound,
                                                epsilon=epsilon,
                                                max_rounds_override=max_rounds_override,
                                                trial_index=repeat,  # disambiguates repeats
                                            )
                                            if spec in seen:
                                                continue
                                            seen.add(spec)
                                            specs.append(spec)
        seeds = _seed_ints(base_seed, len(specs))
        indexed = tuple(
            replace(spec, seed=seed, trial_index=index)
            for index, (spec, seed) in enumerate(zip(specs, seeds))
        )
        return cls(name=name, specs=indexed)

    # Grid keys taking one scalar value; every other from_grid parameter is an
    # axis and must be a JSON array.
    _SCALAR_GRID_KEYS = frozenset({"repeats", "base_seed", "max_rounds_override"})

    @classmethod
    def from_file(cls, path: str | Path) -> "Campaign":
        """Load a campaign from JSON: ``{"grid": {...}}`` or ``{"trials": [...]}``.

        Malformed declarations raise :class:`ConfigurationError` naming the
        offending key (or trial entry) — a grid file is user input, so a bare
        ``TypeError`` escaping from the dataclass constructor is a bug here,
        not an acceptable answer.
        """
        path = Path(path)
        declaration = json.loads(path.read_text())
        if not isinstance(declaration, Mapping):
            raise ConfigurationError(f"{path}: campaign file must be a JSON object")
        return cls.from_payload(declaration, source=str(path), default_name=path.stem)

    @classmethod
    def from_payload(
        cls,
        declaration: Mapping[str, Any],
        source: str = "campaign",
        default_name: str = "campaign",
    ) -> "Campaign":
        """Build a campaign from a parsed JSON declaration.

        The declaration shape is the campaign-file schema (``{"grid": {...}}``
        or ``{"trials": [...]}`` plus an optional ``"name"``); the HTTP
        server's campaign-submission body goes through here too, so files and
        API requests validate identically.  ``source`` labels error messages
        (a path, or e.g. ``"request body"``).
        """
        if not isinstance(declaration, Mapping):
            raise ConfigurationError(f"{source}: campaign declaration must be a JSON object")
        name = str(declaration.get("name", default_name))
        if "trials" in declaration:
            records = declaration["trials"]
            if isinstance(records, (str, bytes)) or not isinstance(records, Sequence):
                raise ConfigurationError(f"{source}: 'trials' must be a list of trial objects")
            specs: list[TrialSpec] = []
            for index, record in enumerate(records):
                if not isinstance(record, Mapping):
                    raise ConfigurationError(
                        f"{source}: trials[{index}] must be a JSON object, got {type(record).__name__}"
                    )
                try:
                    specs.append(TrialSpec.from_dict(record))
                except ConfigurationError as error:
                    raise ConfigurationError(f"{source}: trials[{index}]: {error}") from error
                except (TypeError, ValueError) as error:
                    # e.g. a parameter mapping spelled as a scalar — surface
                    # the entry and the field-level complaint, not a traceback.
                    raise ConfigurationError(
                        f"{source}: trials[{index}]: malformed trial entry: {error}"
                    ) from error
            return cls.from_specs(name, specs)
        if "grid" in declaration:
            if not isinstance(declaration["grid"], Mapping):
                raise ConfigurationError(f"{source}: 'grid' must be a JSON object")
            grid: dict[str, Any] = dict(declaration["grid"])
            axes = set(inspect.signature(cls.from_grid).parameters) - {"name"}
            unknown = set(grid) - axes
            if unknown:
                raise ConfigurationError(
                    f"{source}: unknown grid axes {sorted(unknown)}; known: {sorted(axes)}"
                )
            for key, value in grid.items():
                if key in cls._SCALAR_GRID_KEYS:
                    valid = value is None if key == "max_rounds_override" else False
                    if not valid and (isinstance(value, bool) or not isinstance(value, int)):
                        raise ConfigurationError(
                            f"{source}: grid key {key!r} must be an integer, got {value!r}"
                        )
                elif value is None and key == "process_counts":
                    pass  # explicit null = from_grid's own "paper minimum n" default
                elif isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
                    raise ConfigurationError(
                        f"{source}: grid axis {key!r} must be a list of values, got {value!r}"
                    )
            try:
                return cls.from_grid(name, **grid)
            except ConfigurationError:
                raise
            except (TypeError, ValueError) as error:
                raise ConfigurationError(
                    f"{source}: malformed grid declaration: {error}"
                ) from error
        raise ConfigurationError(f"{source}: campaign declaration needs a 'grid' or 'trials' key")

    # -- views -----------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Summarise the campaign's axes (for logs and CLI output)."""
        return {
            "name": self.name,
            "trials": len(self.specs),
            "protocols": sorted({spec.protocol for spec in self.specs}),
            "workloads": sorted({spec.workload for spec in self.specs}),
            "adversaries": sorted({spec.adversary for spec in self.specs}),
            "schedulers": sorted({spec.scheduler for spec in self.specs}),
        }
