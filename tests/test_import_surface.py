"""scipy is loaded by a process's first linear program, not by an import.

``geometry/linprog.py`` is the one module that imports scipy, and it does so
when the process builds its first program (:func:`resolve_seam`).  Store
reads, ``repro serve`` and every ``d <= 2`` campaign (closed-form geometry)
never build one, so they never pay scipy's import time or its memory.  Each
case runs in a fresh interpreter, because this process has long since
loaded scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src"

#: Defines ``report(**extra)``: prints which scipy modules are loaded, the
#: resolved backend and the backend gauge's samples, as one JSON line.
_PRELUDE = """
import json, sys

def report(**extra):
    from repro.geometry import linprog
    from repro.obs.registry import get_registry

    gauge = get_registry().snapshot()["repro_kernel_lp_backend"]["samples"]
    print(json.dumps({
        "loaded": [name for name in ("scipy.sparse", "scipy.optimize") if name in sys.modules],
        "backend": linprog.LP_BACKEND,
        "gauge": {label: value for (label,), value in gauge.items()},
        **extra,
    }))
"""


def _fresh(body: str) -> dict:
    """Run ``body`` after the prelude in a new interpreter; return its report."""
    completed = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(body)],
        env={**os.environ, "PYTHONPATH": str(SOURCE)},
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


UNRESOLVED = {"loaded": [], "backend": None, "gauge": {}}


def test_importing_the_entry_points_loads_no_scipy():
    assert _fresh("""
        import repro.cli, repro.engine, repro.server
        report()
    """) == UNRESOLVED


def test_importing_the_server_loads_numpy_random():
    """numpy loads ``numpy.random`` on first use; the engine takes it at
    import, so a server's first campaign does not pay for it."""
    assert _fresh("""
        import repro.server
        report(numpy_random="numpy.random" in sys.modules)
    """) == {**UNRESOLVED, "numpy_random": True}


def test_a_planar_campaign_and_a_served_query_load_no_scipy(tmp_path):
    store = tmp_path / "store.db"
    outcome = _fresh(f"""
        import asyncio, http.client, threading
        from repro.engine import CampaignSession, TrialSpec
        from repro.server import CampaignService, serve

        specs = [
            TrialSpec(protocol=protocol, workload="uniform_box", process_count=5,
                      dimension=2, fault_bound=1, adversary=adversary,
                      seed=seed, trial_index=seed)
            for protocol in ("restricted_sync", "approx")
            for adversary in ("none", "crash")
            for seed in range(3)
        ]
        rows = list(CampaignSession(specs, engine="auto", store={str(store)!r}).rows())

        bound = {{}}
        ready = threading.Event()

        def on_ready(host, port):
            bound["port"] = port
            ready.set()

        service = CampaignService({str(store)!r})
        threading.Thread(
            target=asyncio.run, args=(serve(service, port=0, ready=on_ready),), daemon=True
        ).start()
        assert ready.wait(30)
        conn = http.client.HTTPConnection("127.0.0.1", bound["port"], timeout=30)
        conn.request("GET", "/store/query")
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        report(ok=sum(row.ok for row in rows), status=response.status, served=body["count"])
    """)
    assert outcome == {**UNRESOLVED, "ok": 12, "status": 200, "served": 12}


def test_a_three_dimensional_exact_trial_resolves_the_seam():
    assert _fresh("""
        from repro.engine import TrialSpec, run_trial

        result = run_trial(TrialSpec(protocol="exact", workload="uniform_box",
                                     process_count=5, dimension=3, fault_bound=1, seed=1))
        report(ok=result.ok)
    """) == {
        "loaded": ["scipy.sparse", "scipy.optimize"],
        "backend": "highs_core",
        "gauge": {"highs_core": 1.0},
        "ok": True,
    }


def test_the_pool_forks_its_seats_with_the_seam_resolved():
    outcome = _fresh("""
        import os
        from repro.engine.pool import get_pool, shutdown_pools
        from repro.geometry import linprog

        at_fork = []
        os.register_at_fork(before=lambda: at_fork.append(linprog.LP_BACKEND))
        before = list(sys.modules)
        get_pool(2)
        shutdown_pools()
        report(at_fork=at_fork, scipy_before="scipy.optimize" in before)
    """)
    assert outcome["scipy_before"] is False
    assert outcome["backend"] == "highs_core"
    assert len(outcome["at_fork"]) >= 2
    assert set(outcome["at_fork"]) == {"highs_core"}
