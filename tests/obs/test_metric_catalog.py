"""The metric catalog in ``docs/OBSERVABILITY.md`` against the live registry.

Every instrumented module registers its families at import.  After importing
all of them, the registry's ``repro_*`` families must be exactly the ones the
catalog tables name: a family added in code without a catalog row, or a row
left behind for a family the code no longer registers, fails here.  The
kernel's event kinds are held to the same rule, one label value at a time.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro.engine.pool  # noqa: F401 — registers the pool families
import repro.engine.session  # noqa: F401
import repro.geometry.kernel as kernel
import repro.geometry.linprog  # noqa: F401
import repro.network.runtime_core  # noqa: F401
import repro.server.http  # noqa: F401
import repro.store.backend  # noqa: F401
from repro.obs.registry import get_registry

CATALOG = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"
#: A catalog table row: ``| `repro_family` | type | labels | meaning |``.
CATALOG_ROW = re.compile(r"^\| `(repro_[a-z0-9_]+)` \|", re.MULTILINE)


def test_registry_families_are_the_catalogued_ones():
    documented = CATALOG_ROW.findall(CATALOG.read_text(encoding="utf-8"))
    assert len(documented) == len(set(documented)), "a family has two catalog rows"
    registered = {name for name in get_registry().snapshot(collect=False) if name.startswith("repro_")}
    assert registered == set(documented)


def test_kernel_event_kinds_are_the_catalogued_ones():
    catalog = CATALOG.read_text(encoding="utf-8")
    row = re.search(r"^\| `repro_kernel_events_total` \|.*$", catalog, re.MULTILINE).group(0)
    kinds = re.search(r"Kinds: (.*?)\.", row)
    documented = re.findall(r"`([a-z_]+)`", kinds.group(1))
    assert len(documented) == len(set(documented)), "a kind is listed twice"
    assert set(documented) == set(kernel._EVENTS)
