"""Per-layer self time, installed from outside the program.

:func:`install` wraps the public functions and methods of each layer's
modules (the table :data:`LAYERS`) in timing wrappers; :func:`uninstall`
puts the originals back.  Nothing in the program is edited: a wrapped
function is replaced in every loaded ``repro`` module that bound it by
name, and a wrapped method is replaced on its class.

Each wrapper keeps a per-thread stack of open frames.  On exit a call's
*self* time -- its duration minus the time covered by the wrapped calls
it made -- is added to its layer, and its duration is charged to the
parent frame as child time.  :meth:`Tracer.op` opens the root frame of
one op; the root's self time is the op's ``unattributed`` time, so the
per-layer self times plus ``unattributed`` add up to the traced op time
exactly.  All accounting stays in memory (per-thread totals: self
nanoseconds and call counts per layer) and is read out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: (layer, module, members).  ``members`` of ``None`` means the module's
#: public surface: every function and class in its ``__all__`` defined
#: in the module itself, with every public method (and ``__init__``) of
#: those classes.  ``"Class.*"`` takes every plain method of a class,
#: private ones included.
LAYERS: Tuple[Tuple[str, str, Optional[Tuple[str, ...]]], ...] = (
    ("strings.nfa", "repro.strings.nfa", None),
    ("strings.dfa", "repro.strings.dfa", None),
    ("automata.nta", "repro.automata.nta", None),
    ("automata.bta", "repro.automata.bta", None),
    ("mso.compile", "repro.mso.compile", None),
    ("xpath.to_mso", "repro.xpath.to_mso", None),
    ("core.topdown_analysis", "repro.core.topdown_analysis", None),
    ("core.safety", "repro.core.safety", None),
    ("core.typecheck", "repro.core.typecheck", None),
    ("core.dtl_analysis", "repro.core.dtl_analysis", None),
    ("lint.dataflow", "repro.lint.dataflow.framework", None),
    ("lint.engine", "repro.lint.engine", None),
    ("cli.load", "repro.cli", ("load_schema_ex", "load_transducer_ex")),
    ("schema.dtd", "repro.schema.dtd", None),
    ("obs.snapshot", "repro.obs.snapshot", ("Snapshot.*",)),
    ("corpus.cache.key", "repro.corpus.cache", ("job_cache_key",)),
    ("corpus.cache.get", "repro.corpus.cache", ("ResultCache.get",)),
    ("corpus.cache.put", "repro.corpus.cache", ("ResultCache.put",)),
    ("corpus.runner", "repro.corpus.runner", ("run_corpus", "WorkerPool.*")),
    ("obs.journal", "repro.obs.journal", ("Journal.*",)),
    ("serve.protocol", "repro.serve.protocol", None),
    ("serve.dispatcher", "repro.serve.dispatcher", ("Dispatcher.*",)),
)

LAYER_NAMES: Tuple[str, ...] = tuple(layer for layer, _, _ in LAYERS)
UNATTRIBUTED = "unattributed"


def _plain(value: Any) -> bool:
    """A synchronous function whose call does its work before returning
    (generators and coroutines would only be timed while created)."""
    return (
        inspect.isfunction(value)
        and not inspect.isgeneratorfunction(value)
        and not inspect.iscoroutinefunction(value)
        and not inspect.isasyncgenfunction(value)
    )


def _class_members(cls: type, everything: bool) -> List[str]:
    names = []
    for name, value in sorted(vars(cls).items()):
        if not _plain(value):
            continue
        if everything or name == "__init__" or not name.startswith("_"):
            names.append(name)
    return names


def targets(module_name: str, members: Optional[Sequence[str]]) -> List[Tuple[Any, str]]:
    """``(owner, attribute)`` pairs to wrap: owner is the module for a
    function, the class for a method."""
    module = importlib.import_module(module_name)
    found: List[Tuple[Any, str]] = []
    if members is None:
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name, None)
            if getattr(value, "__module__", None) != module_name:
                continue
            if inspect.isclass(value):
                found.extend((value, method) for method in _class_members(value, False))
            elif _plain(value):
                found.append((module, name))
        return found
    for member in members:
        if "." in member:
            class_name, method = member.split(".", 1)
            cls = getattr(module, class_name)
            methods = _class_members(cls, True) if method == "*" else [method]
            found.extend((cls, name) for name in methods)
        else:
            found.append((module, member))
    return found


class _ThreadTotals:
    __slots__ = ("stack", "self_ns", "calls")

    def __init__(self) -> None:
        self.stack: List[List[int]] = []
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}


class Tracer:
    """In-memory per-layer accounting shared by every wrapper."""

    def __init__(self, rooted: bool = True,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        #: With ``rooted``, calls made outside :meth:`op` are not
        #: counted (in-process workloads time only the op itself); a
        #: daemon has no op frames, so there every call counts.
        self.rooted = rooted
        #: Wall time for a single-threaded op; a multi-threaded daemon
        #: passes ``time.thread_time_ns`` so a thread waiting for the
        #: GIL is not charged for the work of another.
        self.clock = clock
        self._local = threading.local()
        self._threads: List[_ThreadTotals] = []
        self._register = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []
        self.ops = 0
        self.op_ns = 0

    def _totals(self) -> _ThreadTotals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = _ThreadTotals()
            self._local.totals = totals
            with self._register:
                self._threads.append(totals)
        return totals

    def _wrap(self, layer: str, function: Callable[..., Any]) -> Callable[..., Any]:
        clock = self.clock
        totals_for = self._totals
        rooted = self.rooted

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            totals = totals_for()
            stack = totals.stack
            if rooted and not stack:
                return function(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals.self_ns[layer] = totals.self_ns.get(layer, 0) + elapsed - frame[0]
                totals.calls[layer] = totals.calls.get(layer, 0) + 1

        traced.__wrapped_layer__ = layer  # type: ignore[attr-defined]
        return traced

    def install(self) -> int:
        """Wrap every layer's members; returns how many were wrapped."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, module_name, members in LAYERS:
            for owner, name in targets(module_name, members):
                original = vars(owner)[name]
                wrapper = self._wrap(layer, original)
                self._patched.append((owner, name, original))
                setattr(owner, name, wrapper)
                if inspect.ismodule(owner):
                    # ``from .x import f`` copies the binding: rebind it
                    # in every repro module that holds this function.
                    for other in list(sys.modules.values()):
                        if other is owner or not getattr(other, "__name__", "").startswith("repro"):
                            continue
                        for attr, value in list(vars(other).items()):
                            if value is original:
                                self._patched.append((other, attr, original))
                                setattr(other, attr, wrapper)
        return len(self._patched)

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []

    @contextmanager
    def op(self) -> Iterator[None]:
        """The root frame of one op; its self time is unattributed."""
        totals = self._totals()
        if totals.stack:
            raise RuntimeError("ops do not nest")
        frame = [0]
        totals.stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            totals.stack.pop()
            totals.self_ns[UNATTRIBUTED] = (
                totals.self_ns.get(UNATTRIBUTED, 0) + elapsed - frame[0]
            )
            self.ops += 1
            self.op_ns += elapsed

    def totals(self) -> Dict[str, Any]:
        """Everything measured so far, summed over threads."""
        self_ns: Dict[str, int] = {}
        calls: Dict[str, int] = {}
        for totals in list(self._threads):
            for layer, value in totals.self_ns.items():
                self_ns[layer] = self_ns.get(layer, 0) + value
            for layer, value in totals.calls.items():
                calls[layer] = calls.get(layer, 0) + value
        return {"self_ns": self_ns, "calls": calls, "ops": self.ops, "op_ns": self.op_ns}

    def reset(self) -> None:
        for totals in list(self._threads):
            totals.self_ns.clear()
            totals.calls.clear()
        self.ops = 0
        self.op_ns = 0
