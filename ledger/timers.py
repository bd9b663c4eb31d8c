"""Per-layer timers and counters installed around the program's public calls.

The ledger never edits the program: it rebinds each public callable at
every place a caller looks it up (module globals of every loaded
``repro`` module, or the class attribute for methods), records the
call, and restores the original binding afterwards.  Self time is a
call's duration minus the wrapped calls nested inside it, so the
per-layer self times of one op add up to the op's time spent inside
wrapped code.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from hostspeed import cpu

#: (layer, defining module, attribute) of every wrapped public call.
#: A dotted attribute names a method on a class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("io.parse_blif", "repro.io.blif", "parse_blif"),
    ("network.decompose", "repro.network.decompose", "decompose"),
    ("place.base", "repro.place.placer", "place_base_network"),
    ("core.partition", "repro.core.partition", "partition"),
    ("core.match", "repro.core.matching", "Matcher.matches_in_tree"),
    ("core.cover", "repro.core.covering", "cover_tree"),
    ("core.map", "repro.core.mapper", "map_network"),
    ("core.k_point", "repro.core.flow", "run_k_point"),
    ("place.cell", "repro.place.placer", "place_netlist"),
    ("route", "repro.route.router", "GlobalRouter.route"),
    ("timing.sta", "repro.timing.sta", "StaticTimingAnalyzer.analyze"),
    ("serve.job", "repro.serve.engine", "ServeEngine.run_job"),
)

#: Router work counters copied from ``RoutingResult.stats`` per call.
ROUTE_STATS = (("init_s", "route.t_init"), ("negotiate_s", "route.t_negotiate"),
               ("iterations", "route.iterations"),
               ("segments_rerouted", "route.segments_rerouted"),
               ("nets_rerouted", "route.nets_rerouted"),
               ("routes_reused", "route.routes_reused"))


@dataclass
class Layer:
    """What one wrapped call accumulated."""

    calls: int = 0
    self_s: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value


def _repro_modules() -> List[Any]:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "repro" or name.startswith("repro."))]


class Patches:
    """Rebinds callables at every lookup site and restores them."""

    def __init__(self) -> None:  # noqa: D107
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(self, module: str, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` (a function or ``Class.method``) by
        ``make(current)`` wherever the current binding is looked up."""
        owner: Any = importlib.import_module(module)
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part)
        current = getattr(owner, path[-1])
        wrapper = make(current)
        if len(path) > 1:
            self._set(owner, path[-1], wrapper)
            return
        for mod in _repro_modules():
            for name, value in list(vars(mod).items()):
                if value is current:
                    self._set(mod, name, wrapper)

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        """Put every original binding back, newest first."""
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def capture_points(patches: Patches, sink: List[Tuple[Any, Any]]) -> None:
    """Append ``(base network, EvalPoint)`` for every evaluated K point.

    Serve jobs return only result rows; this is how the output checks
    reach the points behind them.  It records, it does not time.
    """
    def make(fn: Callable) -> Callable:
        def run_k_point(*args: Any, **kwargs: Any) -> Any:
            point = fn(*args, **kwargs)
            sink.append((args[0], point))
            return point
        return run_k_point
    patches.replace("repro.core.flow", "run_k_point", make)


class Ledger:
    """Self time and work counts per layer over the calls it wraps."""

    def __init__(self) -> None:  # noqa: D107
        self.layers: Dict[str, Layer] = {name: Layer() for name, _, _ in TARGETS}
        self._child: List[float] = []   # nested wrapped time per open call

    def install(self, patches: Patches) -> None:
        """Wrap every target (restore through ``patches``)."""
        for name, module, attr in TARGETS:
            patches.replace(module, attr,
                            lambda fn, name=name: self._wrap(name, fn))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        layer = self.layers[name]
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        def timed(*args: Any, **kwargs: Any) -> Any:
            state = before(args) if before is not None else None
            self._child.append(0.0)
            t0 = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = cpu() - t0
                nested = self._child.pop()
                layer.calls += 1
                layer.self_s += duration - nested
                if self._child:
                    self._child[-1] += duration
            if after is not None:
                after(layer, args, result, state)
            return result
        timed.__wrapped__ = fn
        return timed


def _match_before(args: Tuple[Any, ...]) -> int:
    return args[0].stats["match_cache_hits"]


def _match_after(layer: Layer, args: Tuple[Any, ...], result: Any,
                 hits0: Optional[int]) -> None:
    layer.add("hits", args[0].stats["match_cache_hits"] - hits0)


def _partition_after(layer: Layer, args: Tuple[Any, ...], result: Any,
                     state: Any) -> None:
    layer.add("trees", len(result.roots))


def _map_after(layer: Layer, args: Tuple[Any, ...], result: Any,
               state: Any) -> None:
    layer.add("memo_hits", result.stats.get("cover.memo_hits", 0))


def _route_after(layer: Layer, args: Tuple[Any, ...], result: Any,
                 state: Any) -> None:
    for key, stat in ROUTE_STATS:
        layer.add(key, result.stats.get(stat, 0))


_BEFORE = {"core.match": _match_before}
_AFTER = {"core.match": _match_after, "core.partition": _partition_after,
          "core.map": _map_after, "route": _route_after}
