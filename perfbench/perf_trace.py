"""Span and counter accounting for the benchmark's traced runs.

A :class:`Probe` names callables of one ``src/repro`` layer.  While a
:func:`traced` block is open, each of them is replaced — on its class, or in
every ``repro`` module that bound the function by name — by a wrapper that
counts calls and times a span.  Spans nest on one stack, so a span's *self*
time is its duration minus the durations of the spans it directly caused.
Time spent in code no probe covers is charged to the nearest enclosing span
(ultimately the simulator's ``run``/``step``).

Wrappers go in at class level before any network is built: the flit plane
binds callbacks such as ``Router.packet_arrived`` into its links at
construction, so a wrapper installed later would never run.  Leaving the
block restores every original object, which :func:`leftover_wrappers`
checks.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Attribute set on every wrapper, so leftovers can be found after a run.
WRAPPER_MARK = "_perfbench_probe"

Observer = Callable[[tuple, object], None]


@dataclass
class Stat:
    """Accumulated spans of one probe."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    raised: int = 0


@dataclass(frozen=True)
class Probe:
    """Callables of one layer that share a stat.

    ``targets`` are ``"module:Class.method"`` or ``"module:function"``.
    ``observe(args, result)`` runs inside the span after each successful
    call, for counts the call arguments or result carry.
    """

    name: str
    layer: str
    targets: Tuple[str, ...]
    observe: Optional[Observer] = None


class Tracer:
    """Holds the span stack and the per-probe stats of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, Stat] = {}
        self.layers: Dict[str, List[str]] = {}
        #: One entry per open span: time covered by its child spans so far.
        self._stack: List[float] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def layer_self_s(self, layer: str) -> float:
        """Self time of every probe registered under ``layer``."""
        return sum(self.stats[name].self_s for name in self.layers.get(layer, ()))

    def wrap(self, fn: Callable, name: str, layer: str,
             observe: Optional[Observer] = None) -> Callable:
        """A span-recording stand-in for ``fn``."""
        stat = self.stat(name)
        members = self.layers.setdefault(layer, [])
        if name not in members:
            members.append(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            except BaseException:
                stat.raised += 1
                raise
            finally:
                elapsed = clock() - start
                stat.self_s += elapsed - stack.pop()
                stat.total_s += elapsed
                if stack:
                    stack[-1] += elapsed

        setattr(wrapper, WRAPPER_MARK, name)
        return wrapper


def _resolve(target: str) -> Tuple[object, str, object]:
    """``(owner, attribute, original)`` for a ``module:qualname`` target."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            raise LookupError(f"{target}: not defined on the class itself")
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


def _bindings(owner: object, attr: str, original: object) -> List[Tuple[object, str]]:
    """Every place ``original`` must be replaced.

    A class attribute is patched once.  A module-level function is also
    patched in each ``repro`` module that imported it by name, since those
    modules call their own binding.
    """
    if isinstance(owner, type):
        return [(owner, attr)]
    places = [(owner, attr)]
    for module_name, module in list(sys.modules.items()):
        if module is owner or not module_name.startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                places.append((module, name))
    return places


@contextlib.contextmanager
def patched(replacements: Sequence[Tuple[str, Callable[[Callable], Callable]]]) -> Iterator[None]:
    """Replace each target by ``make(original)``; restore the originals on exit."""
    restore: List[Tuple[object, str, object]] = []
    try:
        for target, make in replacements:
            owner, attr, original = _resolve(target)
            wrapper = make(original)
            if not hasattr(wrapper, WRAPPER_MARK):
                setattr(wrapper, WRAPPER_MARK, target)
            for place, name in _bindings(owner, attr, original):
                restore.append((place, name, original))
                setattr(place, name, wrapper)
        yield
    finally:
        for place, name, original in reversed(restore):
            setattr(place, name, original)


def traced(tracer: Tracer, probes: Sequence[Probe]):
    """Install a span wrapper on every probe target (a context manager)."""
    return patched([
        (target, functools.partial(
            tracer.wrap, name=probe.name, layer=probe.layer, observe=probe.observe))
        for probe in probes
        for target in probe.targets
    ])


def leftover_wrappers() -> List[str]:
    """Functions and class attributes of ``repro`` modules still wrapped."""
    left = []
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if hasattr(value, WRAPPER_MARK):
                left.append(f"{module_name}:{name}")
            elif isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    if hasattr(member, WRAPPER_MARK):
                        left.append(f"{module_name}:{name}.{attr}")
    return sorted(set(left))
