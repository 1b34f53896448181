"""Content-addressed results store: resumable campaigns and cross-run caching.

The deterministic engine (PRs 2–4) makes every trial a pure function of its
:class:`~repro.engine.spec.TrialSpec`.  This package turns that guarantee
into a serving substrate: trial rows are warehoused under a content address
derived from the spec itself (:mod:`repro.store.keys`), in one
:class:`~repro.store.backend.ResultStore` over a single SQLite file
(:mod:`repro.store.backend`), and queried without
re-execution through :mod:`repro.store.query`.

A campaign session (:mod:`repro.engine.session`) consults a store before planning
— cached trials are served without spawning workers, only misses run — which
is what makes interrupted campaigns resumable and repeated grids cheap.  The
``python -m repro.cli store`` command group (``stats`` / ``query`` /
``export`` / ``gc`` / ``import``) manages stores from the shell.
"""

from repro.store.backend import (
    INDEXED_COLUMNS,
    ResultStore,
    StoreEntry,
    open_store,
)
from repro.store.keys import (
    ENGINE_VERSION,
    VOLATILE_SPEC_FIELDS,
    trial_key,
)
from repro.store.query import (
    AGGREGATE_COLUMNS,
    StoredTrial,
    TrialFilter,
    aggregate_store,
    query_store,
)

__all__ = [
    "AGGREGATE_COLUMNS",
    "ENGINE_VERSION",
    "INDEXED_COLUMNS",
    "VOLATILE_SPEC_FIELDS",
    "ResultStore",
    "StoreEntry",
    "StoredTrial",
    "TrialFilter",
    "aggregate_store",
    "open_store",
    "query_store",
    "trial_key",
]
