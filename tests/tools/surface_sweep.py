"""Sweep ``src/`` for code that no product path runs.

Run from the repository root::

    PYTHONPATH=src python tests/tools/surface_sweep.py

The sweep runs every product driver in :func:`product_drivers` (each CLI
subcommand and flag, the five examples and the four ledger workloads), two
campaigns sharing one store, every HTTP route of ``repro serve``
(:func:`drive_server`), then the tier-1 suite, with the recorder in
``tests/tools/sweep_site/sitecustomize.py`` loaded into every interpreter
they start.  It prints, and writes to ``.surface_sweep/report.json``:

* the executable ``src/`` lines, split into product-reached, test-only and
  unreached;
* every function no product driver enters, and why it stays
  (:data:`BRANCH_EXEMPT`);
* every defaulted parameter of a product-entered function that no product
  call set to another value, and why it stays (:data:`PARAMETER_EXEMPT`).

It exits 1 when a ``src/`` function is entered by no product driver and is
not in :data:`BRANCH_EXEMPT`, when a defaulted parameter no product call sets
is not in :data:`PARAMETER_EXEMPT`, when an exemption of either kind is
stale (its function is gone; its parameter is gone or a product call now
sets it), or when a driver exits with a status it should not.  The verdict is
per function, so lines that depend on scheduling cannot flip it.

Two interpreters escape the recorder: children started with their own
``PYTHONPATH`` (the ledger's ``serve_mixed`` server, one pool test's CLI
child).  The sweep drives ``repro serve`` itself for that reason.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src"
SITE = Path(__file__).resolve().parent / "sweep_site"
OUT = ROOT / ".surface_sweep"

sys.path.insert(0, str(SITE))
from sitecustomize import executable_lines  # noqa: E402  (the recorder's own line rule)

_ABSTRACT = "abstract: every product subclass overrides it"
_FAULTY = "required by the process interface; runtimes never ask a faulty process"
_INSPECTION = "test inspection: tests read the live object through it"
_DECLARED = "declared input: engine/factories.py passes a campaign's workload params through"
_DEPLOYMENT = "deployment setting: repro serve's --host / --workers; the sweep uses the default"

#: ``module:qualname`` -> why the function stays although no product driver enters it.
#: Only test oracles and test inspection, fault and concurrency handling,
#: validation of untrusted input and abstract declarations qualify.
BRANCH_EXEMPT: dict[str, str] = {
    # Abstract declarations.
    "repro.byzantine.adversary:MessageMutator.mutate": _ABSTRACT,
    "repro.network.scheduler:DeliveryScheduler.choose": _ABSTRACT,
    "repro.obs.registry:_Family._make_child": _ABSTRACT,
    "repro.processes.process:AsyncProcess.decision": _ABSTRACT,
    "repro.processes.process:AsyncProcess.has_decided": _ABSTRACT,
    "repro.processes.process:AsyncProcess.on_message": _ABSTRACT,
    "repro.processes.process:AsyncProcess.on_start": _ABSTRACT,
    "repro.processes.process:SyncProcess.decision": _ABSTRACT,
    "repro.processes.process:SyncProcess.deliver": _ABSTRACT,
    "repro.processes.process:SyncProcess.has_decided": _ABSTRACT,
    "repro.processes.process:SyncProcess.outgoing": _ABSTRACT,
    "repro.byzantine.adversary:ByzantineAsyncProcess.decision": _FAULTY,
    "repro.byzantine.adversary:ByzantineAsyncProcess.has_decided": _FAULTY,
    "repro.byzantine.adversary:ByzantineAsyncProcess.on_message":
        "required by the process interface; the runtime binds the inner process's handler",
    "repro.byzantine.adversary:ByzantineSyncProcess.decision": _FAULTY,
    "repro.byzantine.adversary:ByzantineSyncProcess.has_decided": _FAULTY,
    # Test oracles and test inspection.
    "repro.core.safe_area:_relaxed_safe_area_point":
        "test oracle: the literal relaxed LP the kernel's relaxed solve is checked against",
    "repro.core.safe_area:safe_area_contains":
        "test oracle: Gamma membership by the literal leave-f-out definition",
    "repro.core.safe_area:safe_area_point_via_tverberg":
        "test oracle: Lemma 1's Tverberg route to a Gamma point",
    "repro.geometry.kernel:halfspace_depth":
        "test oracle: the depth the kernel suites certify Gamma points with",
    "repro.geometry.kernel:halfspace_depth.<locals>.depth_along": "part of the halfspace_depth oracle",
    "repro.geometry.kernel:halfspace_depth.<locals>.with_perturbations":
        "part of the halfspace_depth oracle",
    "repro.geometry.points:centroid": "test oracle: the f = 0 answer of the literal safe-area oracles",
    "repro.workloads.generators:basis_counterexample_registry":
        "test oracle: Theorem 1's counterexample in tests/integration/test_paper_claims.py",
    "repro.engine.spec:read_jsonl": "CI's store-smoke job reads the recomputed rows with it",
    "repro.geometry.kernel:GammaKernel.clear_cache": "test isolation of the shared default kernel",
    "repro.network.async_runtime:AsynchronousRuntime.network": _INSPECTION,
    "repro.network.sync_runtime:SynchronousRuntime.network": _INSPECTION,
    "repro.store.backend:ResultStore.__contains__": _INSPECTION,
    "repro.store.backend:ResultStore.__len__": _INSPECTION,
    # Fault and concurrency handling.
    "repro.broadcast.reliable_broadcast:_value_key":
        "fault handling: keys a Byzantine value that arrives unhashable",
    "repro.consensus.eig:_hashable": "fault handling: keys a Byzantine relay value that is not a float or tuple",
    "repro.core.safe_area:SafeAreaCalculator._empty": "fault handling: the error for an empty Gamma",
    "repro.engine.fuzz:FuzzViolation.to_row": "fault handling: runs only when a scenario breaks an invariant",
    "repro.engine.pool:WorkerPool._respawn": "fault handling: replaces a worker that died mid-unit",
    "repro.engine.session:CampaignSession._await_deferred":
        "concurrency: waits for rows another session claimed; timing decides whether it runs",
    "repro.exceptions:LinearProgramError.__init__": "fault handling: an LP the solver could not answer",
    "repro.geometry.linprog:_run_scipy_front_end":
        "fault handling: the fallback when scipy's private HiGHS binding is missing",
    "repro.network.message:Message.describe": "fault handling: names the message in adversary errors",
    "repro.network.network:CompleteGraphNetwork.channel":
        "fault handling: the error for a channel a scheduler or sender names but the network lacks",
    "repro.processes.process:_refuse_unbound_send":
        "fault handling: a process that sends before a runtime binds it",
}

#: ``module:qualname(parameter)`` -> why the defaulted parameter stays although
#: no product call sets it to another value.  Only input from outside the
#: program (campaign declarations, requests, deployment settings), fault
#: handling, test oracles and interface conventions qualify; a knob only
#: tests set becomes a module constant instead.
PARAMETER_EXEMPT: dict[str, str] = {
    # Input from outside the program.
    "repro.workloads.generators:gradient_registry(fault_count)": _DECLARED,
    "repro.workloads.generators:gradient_registry(gradient_scale)": _DECLARED,
    "repro.workloads.generators:probability_vector_registry(concentration)": _DECLARED,
    "repro.workloads.generators:probability_vector_registry(fault_count)": _DECLARED,
    "repro.workloads.generators:robot_position_registry(arena_size)": _DECLARED,
    "repro.workloads.generators:robot_position_registry(cluster_spread)": _DECLARED,
    "repro.workloads.generators:robot_position_registry(fault_count)": _DECLARED,
    "repro.workloads.generators:uniform_box_registry(fault_count)": _DECLARED,
    "repro.workloads.generators:uniform_box_registry(lower)": _DECLARED,
    "repro.workloads.generators:uniform_box_registry(upper)": _DECLARED,
    "repro.core.restricted_async:run_restricted_async_bvc(traffic_observer)":
        "declared input: a campaign pairing restricted_async with a coordinated adversary sets it",
    "repro.server.service:CampaignService.submit(api_key)":
        "request input: each request's X-Api-Key header; the sweep's requests send none",
    "repro.server.http:run_server(host)": _DEPLOYMENT,
    "repro.server.http:run_server(workers)": _DEPLOYMENT,
    "repro.server.http:serve(host)": _DEPLOYMENT,
    "repro.server.service:CampaignService.__init__(workers)": _DEPLOYMENT,
    # Fault handling.
    "repro.geometry.linprog:_run_highs_core(solver)":
        "fault handling: the HiGHS retry ladder's next solver after a failed solve",
    "repro.geometry.linprog:_run_highs_core(tolerances)":
        "fault handling: the HiGHS retry ladder's looser tolerances after a failed solve",
    "repro.network.async_runtime:AsynchronousRuntime.__init__(max_deliveries)":
        "fault handling: the delivery cap that stops an asynchronous run that never terminates",
    # Test oracles and interface conventions.
    "repro.core.safe_area:safe_area_point(objective)":
        "test oracle: the literal Section 2.2 LP's objective, which the kernel suites vary",
    "repro.core.safe_area:safe_area_point(subset_indices)":
        "test oracle: the literal Section 2.2 LP over an explicit subset family",
    "repro.cli:main(argv)": "interface: the console entry point reads sys.argv; tests pass argv",
    "repro.network.message:Message.__new__(sequence)":
        "interface: pickle and copy rebuild a message through __new__ with all seven fields",
    "repro.obs.registry:Counter.inc(amount)":
        "interface: the Prometheus counter API; every product increment is by one",
}

_FUNCTION = 0x0001  # CO_OPTIMIZED


# ---------------------------------------------------------------------------
# The static side: what could run
# ---------------------------------------------------------------------------


def _module_of(path: Path, root: Path) -> str:
    parts = path.relative_to(root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _code_objects(code: types.CodeType):
    yield code
    for constant in code.co_consts:
        if isinstance(constant, types.CodeType):
            yield from _code_objects(constant)


def source_inventory(root: Path = SOURCE) -> tuple[dict[str, set[int]], dict[str, dict[str, set[int]]]]:
    """Executable lines by file, and every named function's lines by module and qualname."""
    lines: dict[str, set[int]] = {}
    functions: dict[str, dict[str, set[int]]] = {}
    for path in sorted(root.rglob("*.py")):
        filename = os.path.realpath(path)
        module = _module_of(path, root)
        code = compile(path.read_text(encoding="utf-8"), filename, "exec")
        lines[filename] = set()
        for nested in _code_objects(code):
            own = executable_lines(nested)
            lines[filename] |= own
            if nested.co_flags & _FUNCTION and not nested.co_name.startswith("<"):
                functions.setdefault(module, {}).setdefault(nested.co_qualname, set()).update(own)
    return lines, functions


def parameter_inventory(root: Path = SOURCE) -> set[str]:
    """``module:qualname(parameter)`` for every parameter of every named function."""
    names: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        module = _module_of(path, root)
        code = compile(path.read_text(encoding="utf-8"), os.path.realpath(path), "exec")
        for nested in _code_objects(code):
            if nested.co_flags & _FUNCTION and not nested.co_name.startswith("<"):
                count = nested.co_argcount + nested.co_kwonlyargcount
                names.update(f"{module}:{nested.co_qualname}({name})"
                             for name in nested.co_varnames[:count])
    return names


# ---------------------------------------------------------------------------
# The recorded side: what did run
# ---------------------------------------------------------------------------


def merge_records(directory: Path) -> dict:
    """The union of every per-process record the recorder wrote into ``directory``."""
    lines: dict[str, set[int]] = defaultdict(set)
    entered: set[str] = set()
    arguments: dict[str, dict[str, bool]] = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        for filename, numbers in record["lines"].items():
            lines[filename].update(numbers)
        entered.update(record["entered"])
        for key, names in record["arguments"].items():
            for name, changed in names.items():
                arguments[key][name] = arguments[key].get(name, False) or changed
    return {"lines": lines, "entered": entered, "arguments": arguments}


def _function_key(recorded: str, root: Path) -> str:
    """``/abs/src/repro/x.py:Q`` -> ``repro.x:Q``."""
    filename, _, qualname = recorded.rpartition(".py:")
    return f"{_module_of(Path(filename + '.py'), Path(os.path.realpath(root)))}:{qualname}"


def classify(
    root: Path, product: dict, tests: dict, exempt: dict[str, str], parameter_exempt: dict[str, str]
) -> dict:
    """Line counts, per-function verdicts and unset parameters from two merged recordings."""
    lines, functions = source_inventory(root)
    counts = {"executable": 0, "product": 0, "test_only": 0, "unreached": 0}
    for filename, executable in lines.items():
        reached = executable & product["lines"].get(filename, set())
        tested = (executable & tests["lines"].get(filename, set())) - reached
        counts["executable"] += len(executable)
        counts["product"] += len(reached)
        counts["test_only"] += len(tested)
        counts["unreached"] += len(executable - reached - tested)
    product_entered = {_function_key(key, root) for key in product["entered"]}
    test_entered = {_function_key(key, root) for key in tests["entered"]}
    verdicts: dict[str, str] = {}
    for module, qualnames in functions.items():
        for qualname in qualnames:
            key = f"{module}:{qualname}"
            if key in product_entered:
                continue
            verdicts[key] = "test-only" if key in test_entered else "unreached"
    known = {f"{module}:{qualname}" for module, names in functions.items() for qualname in names}
    unset = sorted(
        f"{_function_key(key, root)}({name})"
        for key, names in product["arguments"].items()
        for name, changed in names.items()
        if not changed
    )
    return {
        "counts": counts,
        "not_product": verdicts,
        "violations": sorted(key for key in verdicts if key not in exempt),
        "stale_exemptions": sorted(key for key in exempt if key not in known),
        "exempt_but_entered": sorted(key for key in exempt if key in known and key not in verdicts),
        "unset_parameters": unset,
        "parameter_violations": sorted(name for name in unset if name not in parameter_exempt),
        "stale_parameter_exemptions": sorted(set(parameter_exempt) - set(unset)),
    }


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _cli(*arguments: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *arguments]


def _recompute_grids(engine: str) -> list[tuple[list[str], int]]:
    """CI's store-smoke recompute grids under one engine: ``(argv, expected status)``."""
    base = ["campaign", "--engine", engine, "--adversaries", "none", "crash", "equivocate",
            "outside_hull", "--repeats", "2", "--seed", "27"]
    grids = [
        ["--protocols", "restricted_sync", "--dimensions", "2", "--max-rounds", "2"],
        ["--protocols", "restricted_sync", "--dimensions", "2", "--process-counts", "13", "17",
         "--adversaries", "equivocate", "split_world", "--max-rounds", "2"],
        ["--protocols", "exact", "--dimensions", "1", "2", "3"],
        ["--protocols", "approx", "--dimensions", "2"],
        ["--protocols", "restricted_async", "--dimensions", "2",
         "--schedulers", "random", "round_robin", "lagging", "--max-rounds", "2"],
        ["--protocols", "exact", "--dimensions", "1", "2", "3", "--adversaries", "random_noise"],
        ["--protocols", "exact", "--dimensions", "1", "2", "--faults", "1", "2"],
        ["--protocols", "coordinatewise", "--dimensions", "1", "2", "--faults", "1", "2"],
        ["--protocols", "approx", "restricted_async", "--dimensions", "1", "3",
         "--schedulers", "round_robin", "lagging", "--max-rounds", "2"],
        ["--protocols", "approx", "--dimensions", "1", "2", "--adversaries", "random_noise"],
        ["--protocols", "approx", "--dimensions", "2", "--adversaries", "split_world",
         "adaptive_extreme"],
    ]
    errors = ["--dimensions", "2", "--faults", "1", "--process-counts", "3", "4", "5", "7",
              "--adversaries", "none", "crash"]
    commands = [(_cli(*base, *grid), 0) for grid in grids]
    commands.append((_cli(*base, *errors, "--protocols", "exact", "coordinatewise", "approx",
                          "restricted_sync", "restricted_async", "--max-rounds", "2"), 1))
    commands.append((_cli(*base, *errors, "--protocols", "approx", "restricted_sync",
                          "restricted_async", "--max-rounds", "0"), 1))
    return commands


def product_drivers(work: Path) -> list[tuple[list[str], int]]:
    """Every product command the sweep runs, in order, with its expected exit status."""
    store, grid_file = work / "sweep.db", work / "grid.json"
    grid_file.write_text(json.dumps({
        "name": "grid-file",
        "grid": {"protocols": ["exact", "approx"], "adversaries": ["crash", "outside_hull"],
                 "dimensions": [2], "repeats": 1, "base_seed": 3},
    }), encoding="utf-8")
    trace = work / "campaign.trace.json"
    commands: list[tuple[list[str], int]] = [
        (_cli("--help"), 0),
        (_cli("list"), 0),
        (_cli("bounds", "--dimension", "3", "--faults", "2"), 0),
        (_cli("run", "all", "--output", str(work / "all.txt"), "--store", str(work / "run.db")), 0),
        (_cli("run", "e5", "E8", "--store", str(work / "run.db")), 0),
        (_cli("run", "E99"), 2),
        *_recompute_grids("auto"),
        *_recompute_grids("object"),
        (_cli("campaign", "--protocols", "restricted_sync", "--adversaries", "none", "crash",
              "--process-counts", "13", "--max-rounds", "3", "--repeats", "2",
              "--engine", "vectorized"), 0),
        (_cli("campaign", "--name", "every-workload", "--protocols", "exact", "approx",
              "--workloads", "uniform_box", "probability_vector", "robot_position",
              "gradient", "--epsilons", "0.2", "0.1",
              "--repeats", "1", "--seed", "4", "--workers", "2",
              "--jsonl", str(work / "workloads.jsonl"), "--summary-json", "-"), 0),
        (_cli("campaign", "--protocols", "coordinatewise", "--adversaries", "random_noise",
              "split_world", "hull_collapse", "adaptive_extreme", "--repeats", "1"), 0),
        (_cli("campaign", "--protocols", "coordinatewise", "--workloads", "intro_counterexample",
              "--dimensions", "3", "--process-counts", "4", "--adversaries", "none",
              "--repeats", "1"), 0),
        (_cli("campaign", "--grid-file", str(grid_file), "--workers", "2", "--store", str(store),
              "--jsonl", str(work / "cold.jsonl"), "--summary-json", str(work / "cold.json"),
              "--trace", str(trace)), 0),
        (_cli("campaign", "--grid-file", str(grid_file), "--store", str(store), "--resume",
              "--jsonl", str(work / "warm.jsonl")), 0),
        (_cli("trace", "summary", str(trace), "--limit", "5"), 0),
        (_cli("fuzz", "--count", "200", "--seed", "0", "--workers", "2",
              "--jsonl", str(work / "fuzz.jsonl"), "--summary-json", "-"), 0),
        (_cli("fuzz", "--count", "6", "--seed", "5", "--protocols", "exact",
              "--workloads", "uniform_box", "--adversaries", "crash", "split_world",
              "--schedulers", "random", "--engine", "object", "--store", str(store),
              "--summary-json", str(work / "fuzz.json"), "--trace", str(work / "fuzz.trace.json")),
         0),
        (_cli("fuzz", "--count", "6", "--seed", "5", "--protocols", "exact",
              "--workloads", "uniform_box", "--adversaries", "crash", "split_world",
              "--store", str(store), "--resume"), 0),
        (_cli("store", "stats", "--store", str(store)), 0),
        (_cli("store", "claims", "--store", str(store)), 0),
        (_cli("store", "query", "--store", str(store), "--protocol", "exact", "--workload",
              "uniform_box", "--adversary", "crash", "--scheduler", "random", "--status", "ok",
              "--dimension", "2", "--fault-bound", "1", "--process-count", "4", "--limit", "5"), 0),
        (_cli("store", "query", "--store", str(store), "--limit", "0"), 0),
        (_cli("store", "query", "--store", str(store), "--aggregate", "protocol", "adversary"), 0),
        (_cli("store", "export", "--store", str(store), "--output", str(work / "export.jsonl")), 0),
        (_cli("store", "export", "--store", str(store), "--protocol", "approx",
              "--engine-version", "0.0.0"), 0),
        (_cli("store", "import", "--store", str(work / "old.db"), "--jsonl",
              str(work / "cold.jsonl"), "--engine-version", "0.0.0"), 0),
        (_cli("store", "import", "--store", str(work / "old.db"), "--jsonl",
              str(work / "cold.jsonl")), 0),
        (_cli("store", "gc", "--store", str(work / "old.db"), "--dry-run"), 0),
        (_cli("store", "gc", "--store", str(work / "old.db")), 0),
        (_cli("store", "stats", "--store", str(work / "missing.db")), 1),
    ]
    for example in sorted((ROOT / "examples").glob("*.py")):
        commands.append(([sys.executable, str(example)], 0))
    for workload in ("columnar_sync", "pooled_exact_store", "async_object", "serve_mixed"):
        commands.append(([sys.executable, str(ROOT / "benchmarks" / "ledger" / "run.py"),
                          "--workload", workload, "--seed", "1", "--seconds", "2", "--trace", "1"],
                         0))
    return commands


def drive_shared_store(work: Path, env: dict[str, str]) -> list[str]:
    """Two campaigns over one store at once: the claim path CI's distributed smoke runs."""
    command = _cli("campaign", "--protocols", "exact", "approx", "--adversaries", "crash",
                   "equivocate", "--dimensions", "1", "2", "--repeats", "3", "--seed", "41",
                   "--store", str(work / "shared.db"), "--resume")
    runs = [subprocess.Popen(command, cwd=work, env=env, stdout=subprocess.DEVNULL)
            for _ in range(2)]
    return [f"shared-store campaign exited {run.wait()}" for run in runs if run.wait()]


def _request(connection, method: str, path: str, body=None, headers=None):
    payload = None if body is None else (body if isinstance(body, bytes) else json.dumps(body).encode())
    connection.request(method, path, body=payload, headers=headers or {})
    response = connection.getresponse()
    return response.status, dict(response.getheaders()), response.read()


def drive_server(work: Path, env: dict[str, str]) -> list[str]:
    """Start ``repro serve`` under the recorder and call every route; returns problems."""
    store = work / "serve.db"
    server = subprocess.Popen(
        _cli("serve", "--store", str(store), "--host", "127.0.0.1", "--port", "0",
             "--workers", "1", "--max-active", "1", "--max-pending", "1",
             "--idle-timeout", "5", "--trace-dir", str(work / "serve-traces")),
        stdout=subprocess.PIPE, text=True, env=env, cwd=work,
        # A shell running the sweep in the background starts it with SIGINT
        # ignored, and Python then installs no KeyboardInterrupt handler.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    problems: list[str] = []
    try:
        ready = server.stdout.readline()
        port = int(ready.rsplit(":", 1)[1])
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        grid = {"grid": {"protocols": ["exact"], "adversaries": ["crash", "outside_hull"],
                         "dimensions": [2], "repeats": 2}}
        expected = []

        def call(method, path, status, body=None, headers=None):
            got, head, data = _request(connection, method, path, body, headers)
            if got != status:
                problems.append(f"{method} {path}: {got}, expected {status}: {data[:200]!r}")
            expected.append(path)
            return head, data

        call("GET", "/", 404)
        call("GET", "/healthz", 200)
        _, data = call("POST", "/campaigns", 202, {"campaign": grid, "workers": 1})
        run_id = json.loads(data)["run_id"]
        call("GET", f"/campaigns/{run_id}/rows", 200)
        call("GET", f"/campaigns/{run_id}", 200)
        call("GET", "/campaigns", 200)
        call("GET", "/metrics", 200)
        call("GET", "/metrics?format=prometheus", 200)
        call("GET", "/metrics", 200, headers={"Accept": "text/plain"})
        call("GET", "/store/stats", 200)
        call("GET", "/store/claims", 200)
        head, _ = call("GET", "/store/query?protocol=exact&dimension=2&limit=3", 200)
        call("GET", "/store/query?protocol=exact&dimension=2&limit=3", 304,
             headers={"If-None-Match": head["etag"]})
        head, _ = call("GET", "/store/aggregate?group_by=protocol,adversary", 200)
        call("GET", "/store/aggregate?group_by=protocol,adversary", 304,
             headers={"If-None-Match": head["etag"]})
        head, _ = call("GET", "/store/export?protocol=exact", 200)
        call("GET", "/store/export?protocol=exact", 304, headers={"If-None-Match": head["etag"]})
        slow = {"grid": {"protocols": ["approx"], "adversaries": ["crash"], "dimensions": [3],
                         "repeats": 40, "base_seed": 9}}
        _, data = call("POST", "/campaigns", 202, {"campaign": slow, "resume": False})
        slow_id = json.loads(data)["run_id"]
        _, data = call("POST", "/campaigns", 202, {"campaign": slow, "engine": "object"})
        queued_id = json.loads(data)["run_id"]
        call("POST", "/campaigns", 429, {"campaign": slow})
        call("POST", f"/campaigns/{slow_id}/cancel", 200)
        call("POST", f"/campaigns/{queued_id}/cancel", 200)
        call("GET", f"/campaigns/{slow_id}/rows?cancel_on_disconnect=1", 200)
        call("GET", "/campaigns/nope", 404)
        call("GET", f"/campaigns/{run_id}/other", 404)
        call("DELETE", f"/campaigns/{run_id}", 405)
        call("PUT", "/campaigns", 405)
        call("POST", "/campaigns", 400, b"{not json")
        call("POST", "/campaigns", 400, b"")
        call("POST", "/campaigns", 400, {"campaign": grid, "workers": 0})
        call("POST", "/campaigns", 400, {"nothing": 1})
        call("GET", "/store/query?limit=x", 400)
        call("GET", "/store/query?limit=0", 400)
        call("GET", "/store/query?dimension=99999999999999999999", 400)
        call("GET", "/store/aggregate?group_by=,", 400)
        call("GET", "/store/aggregate?group_by=colour", 400)
        connection.close()
        old = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        old._http_vsn, old._http_vsn_str = 10, "HTTP/1.0"
        _request(old, "GET", "/healthz", headers={"Connection": "keep-alive"})
        old.close()
        closing = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        _request(closing, "GET", "/healthz", headers={"Connection": "close"})
        closing.close()
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:  # stop only once every run has retired
            runs = json.loads(_request(closing, "GET", "/campaigns")[2])["runs"]
            if all(run["state"] in ("finished", "cancelled", "failed") for run in runs):
                break
            time.sleep(0.5)
        closing.close()
    except Exception as error:  # noqa: BLE001 — a broken driver is a sweep failure
        problems.append(f"serve driver: {type(error).__name__}: {error}")
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=120)
        except subprocess.TimeoutExpired:
            server.kill()
            problems.append("repro serve did not stop on SIGINT")
    return problems


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------


def _environment(records: Path, arguments: bool) -> dict[str, str]:
    records.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SITE), str(SOURCE)])
    env["SURFACE_SWEEP_OUT"] = str(records)
    env["SURFACE_SWEEP_SOURCE"] = str(SOURCE)
    env["SURFACE_SWEEP_ARGUMENTS"] = "1" if arguments else "0"
    return env


def run_products(out: Path) -> list[str]:
    work = out / "work"
    work.mkdir(parents=True)
    env = _environment(out / "product", arguments=True)
    problems = []
    for command, status in product_drivers(work):
        started = time.perf_counter()
        completed = subprocess.run(command, cwd=work, env=env, stdout=subprocess.DEVNULL,
                                   stderr=subprocess.PIPE, text=True)
        shown = " ".join(Path(part).name if os.sep in part else part for part in command[1:])
        print(f"  {completed.returncode}  {time.perf_counter() - started:6.1f} s  {shown}",
              flush=True)
        if completed.returncode != status:
            problems.append(f"{shown}: exit {completed.returncode}, expected {status}\n"
                            f"{completed.stderr[-2000:]}")
    problems += drive_shared_store(work, env)
    problems += drive_server(work, env)
    return problems


def run_tests(out: Path) -> int:
    env = _environment(out / "tests", arguments=False)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode


def report(result: dict, exempt: dict[str, str], parameter_exempt: dict[str, str]) -> str:
    counts = result["counts"]
    lines = [
        "src/ executable lines: {executable}, product-reached {product}, test-only {test_only}, "
        "unreached {unreached}".format(**counts),
        f"functions no product driver enters: {len(result['not_product'])} "
        f"({len(result['violations'])} without an exemption)",
    ]
    for key, verdict in sorted(result["not_product"].items()):
        reason = exempt.get(key, "NOT EXEMPT: delete it, give it a product caller, or exempt it")
        lines.append(f"  {verdict:9}  {key}  -- {reason}")
    for key in result["stale_exemptions"]:
        lines.append(f"  STALE EXEMPTION  {key}: no such function in src/")
    for key in result["exempt_but_entered"]:
        lines.append(f"  note: exempt {key} was entered by a product driver this time")
    lines.append(f"defaulted parameters no product call set: {len(result['unset_parameters'])} "
                 f"({len(result['parameter_violations'])} without an exemption)")
    for name in result["unset_parameters"]:
        reason = parameter_exempt.get(
            name, "NOT EXEMPT: make it a module constant, give it a product caller, or exempt it"
        )
        lines.append(f"  {name}  -- {reason}")
    for name in result["stale_parameter_exemptions"]:
        lines.append(f"  STALE EXEMPTION  {name}: no product-entered function leaves it unset")
    return "\n".join(lines)


def main() -> int:
    if OUT.exists():
        shutil.rmtree(OUT)
    OUT.mkdir()
    print("product drivers:", flush=True)
    problems = run_products(OUT)
    print("tier-1 suite under the recorder ...", flush=True)
    status = run_tests(OUT)
    result = classify(SOURCE, merge_records(OUT / "product"), merge_records(OUT / "tests"),
                      BRANCH_EXEMPT, PARAMETER_EXEMPT)
    result["tier1_status"] = status
    result["driver_problems"] = problems
    (OUT / "report.json").write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    print(report(result, BRANCH_EXEMPT, PARAMETER_EXEMPT))
    if status:
        print(f"warning: the tier-1 suite exited {status} under the recorder; "
              "test-only counts may read low")
    for problem in problems:
        print(f"DRIVER FAILED: {problem}")
    return verdict(result, problems)


def verdict(result: dict, problems: list[str]) -> int:
    """The sweep's exit status: 1 when anything in ``result`` or ``problems`` needs attention."""
    return int(bool(
        result["violations"] or result["stale_exemptions"] or result["parameter_violations"]
        or result["stale_parameter_exemptions"] or problems
    ))


if __name__ == "__main__":
    sys.exit(main())
