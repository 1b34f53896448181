"""The line and call recorder behind ``tests/tools/surface_sweep.py``.

Python imports ``sitecustomize`` at start-up from ``sys.path``, so a
directory holding this file at the front of ``PYTHONPATH`` records every
interpreter a driver starts: the CLI, ``repro serve``, the ledger's child
processes and the worker pool's forked children.  Nothing happens unless
``SURFACE_SWEEP_OUT`` names a directory.

Only code under ``SURFACE_SWEEP_SOURCE`` is recorded.  Per code object the
recorder keeps the lines that have not run yet and stops tracing a frame once
that set is empty, so fully covered code costs one call event per call.  With
``SURFACE_SWEEP_ARGUMENTS=1`` it also notes, for every defaulted parameter of
a function it can find by qualified name, whether a call ever bound another
value to it.

Each process writes one JSON file into the output directory when it ends:
at interpreter exit, and before ``os._exit`` (forked pool workers end there,
skipping ``atexit``).
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading

_FUNCTION_FLAGS = 0x0001  # CO_OPTIMIZED: the code object of a function, not a module or class body


def executable_lines(code) -> set[int]:
    """The lines of ``code`` (not its nested code) a ``line`` trace event can report.

    A function's prologue (everything up to its first ``RESUME``) sits on the
    ``def`` line and never fires a line event, so it is left out.
    """
    start = 0
    if code.co_flags & _FUNCTION_FLAGS:
        import dis

        for instruction in dis.get_instructions(code):
            if instruction.opname == "RESUME":
                start = instruction.offset + 2
                break
    return {line for begin, _, line in code.co_lines() if line and begin >= start}


class _Recorder:
    def __init__(self, out_dir: str, source_root: str, track_arguments: bool) -> None:
        self.out_dir = out_dir
        self.source_root = os.path.join(os.path.realpath(source_root), "")
        self.track_arguments = track_arguments
        self.codes: dict[int, tuple] = {}  # id(code) -> (code, state or None)
        self.dumped_by: int | None = None

    # -- tracing -------------------------------------------------------------

    def _register(self, code):
        state = None
        filename = os.path.realpath(code.co_filename) if code.co_filename else ""
        if filename.startswith(self.source_root):
            lines = executable_lines(code)
            state = _CodeState(code, filename, lines, self.track_arguments)
        self.codes[id(code)] = (code, state)
        return state

    def on_call(self, frame, event, arg):
        code = frame.f_code
        entry = self.codes.get(id(code))
        state = entry[1] if entry is not None and entry[0] is code else self._register(code)
        if state is None:
            return None
        if state.watching:
            state.check_arguments(frame)
        state.entered = True
        return state.local if state.pending else None

    # -- output --------------------------------------------------------------

    def dump(self) -> None:
        pid = os.getpid()
        if self.dumped_by == pid:
            return
        self.dumped_by = pid
        sys.settrace(None)
        threading.settrace(None)
        record: dict = {"lines": {}, "entered": [], "arguments": {}}
        for _, state in list(self.codes.values()):
            if state is None:
                continue
            seen = state.lines - state.pending
            if seen:
                record["lines"].setdefault(state.filename, []).extend(sorted(seen))
            key = f"{state.filename}:{state.code.co_qualname}"
            if state.entered:
                record["entered"].append(key)
            if state.arguments:
                entry = record["arguments"].setdefault(key, {})
                for name, (_, changed) in state.arguments.items():
                    entry[name] = entry.get(name, False) or changed
        path = os.path.join(self.out_dir, f"{pid}-{threading.get_ident()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


class _CodeState:
    __slots__ = ("code", "filename", "lines", "pending", "entered", "arguments", "watching", "local")

    def __init__(self, code, filename: str, lines: set[int], track_arguments: bool) -> None:
        self.code = code
        self.filename = filename
        self.lines = lines
        self.pending = set(lines)
        self.entered = False
        # name -> (default, changed), filled at the first call; watched until all changed.
        self.arguments: dict = {}
        self.watching = track_arguments
        pending = self.pending

        def local(frame, event, arg):
            if event == "line":
                pending.discard(frame.f_lineno)
                if not pending:
                    return None
            return local

        self.local = local

    def check_arguments(self, frame) -> None:
        if not self.entered:
            self.arguments = _defaults_of(self.code, frame.f_globals) or {}
        values = frame.f_locals
        open_names = 0
        for name, (default, changed) in self.arguments.items():
            if changed:
                continue
            if _same(values.get(name, default), default):
                open_names += 1
            else:
                self.arguments[name] = (default, True)
        self.watching = open_names > 0


def _defaults_of(code, namespace: dict) -> dict | None:
    """``name -> (default, False)`` for ``code``'s defaulted parameters, found by qualname."""
    if "<" in code.co_qualname:
        return None  # nested functions and lambdas have no stable address
    target = namespace
    for part in code.co_qualname.split("."):
        try:
            target = target[part] if isinstance(target, dict) else vars(target)[part]
        except (KeyError, TypeError):
            return None
    for attribute in ("fget", "__func__"):
        target = getattr(target, attribute, target)
    while getattr(target, "__code__", None) is not code and hasattr(target, "__wrapped__"):
        target = target.__wrapped__
    if getattr(target, "__code__", None) is not code:
        return None
    names = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
    positional = code.co_varnames[: code.co_argcount]
    defaults = dict(zip(positional[len(positional) - len(target.__defaults__ or ()):],
                        target.__defaults__ or ()))
    defaults.update(target.__kwdefaults__ or {})
    return {name: (defaults[name], False) for name in names if name in defaults}


def _same(value, default) -> bool:
    if value is default:
        return True
    if type(value) is not type(default):
        return False
    try:
        return bool(value == default)
    except Exception:  # noqa: BLE001 — arrays and other ambiguous comparisons differ
        return False


def _install(out_dir: str) -> None:
    recorder = _Recorder(
        out_dir,
        os.environ.get("SURFACE_SWEEP_SOURCE", os.getcwd()),
        os.environ.get("SURFACE_SWEEP_ARGUMENTS") == "1",
    )
    real_exit = os._exit

    def exit_after_dump(status):
        recorder.dump()
        real_exit(status)

    os._exit = exit_after_dump
    atexit.register(recorder.dump)
    threading.settrace(recorder.on_call)
    sys.settrace(recorder.on_call)


if os.environ.get("SURFACE_SWEEP_OUT"):
    _install(os.environ["SURFACE_SWEEP_OUT"])
