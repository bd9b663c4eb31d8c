"""Scalar oracles of the vectorized kernels, and the switch onto them.

The shipped placement, matching, covering and routing kernels are
batched or compiled renditions of simpler algorithms, and they must
stay bit-identical to them.  The simple versions live here, out of the
package, as the equivalence reference:

* :mod:`.place` — ``solve_quadratic``, ``spread``, ``legalize_rows``
  and ``anneal``;
* :mod:`.match` — the recursive pattern matcher, ``matches_at`` and
  ``enumerate_matches`` (a drop-in for ``Matcher._enumerate``);
* :mod:`.cover` — ``cover_tree``;
* :mod:`.route` — ``route``, a drop-in for ``GlobalRouter.route``.

Kernel-level tests call an oracle directly.  End-to-end tests run a
whole entry point (``place_netlist``, ``map_network``, ``k_sweep``) on
the oracles through :func:`install`, the ``oracle_engines`` fixture or
:func:`on_oracles`, which rebind every ``repro`` module attribute that
holds a kernel to its oracle (and the ``Matcher._enumerate`` and
``GlobalRouter.route`` methods).  Forked process-pool workers inherit
the rebinding.
"""

from __future__ import annotations

import sys

import pytest

from repro.core import covering
from repro.core.matching import Matcher
from repro.place import annealing, legalize, quadratic, spreading
from repro.route.router import GlobalRouter

from . import cover, match, place, route

#: (kernel, its oracle) — every module binding of the kernel is swapped.
_KERNELS = (
    (quadratic.solve_quadratic, place.solve_quadratic),
    (spreading.spread, place.spread),
    (legalize.legalize_rows, place.legalize_rows),
    (annealing.anneal, place.anneal),
    (covering.cover_tree, cover.cover_tree),
)


def install(monkeypatch: pytest.MonkeyPatch) -> None:
    """Rebind every kernel to its oracle for the monkeypatch's scope."""
    modules = [module for name, module in sorted(sys.modules.items())
               if module is not None
               and (name == "repro" or name.startswith("repro."))]
    for kernel, oracle in _KERNELS:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is kernel:
                    monkeypatch.setattr(module, attr, oracle)
    monkeypatch.setattr(Matcher, "_enumerate", match.enumerate_matches)
    monkeypatch.setattr(GlobalRouter, "route", route.route)


@pytest.fixture
def oracle_engines(monkeypatch):
    """Run the requesting test entirely on the oracles."""
    install(monkeypatch)


def on_oracles(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with every kernel on its oracle."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        install(monkeypatch)
        return fn(*args, **kwargs)
