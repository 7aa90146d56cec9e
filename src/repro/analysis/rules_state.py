"""SL007 — process-state safety: every process-wide mutable is registered.

The sharded campaign fleet (ROADMAP item 1) runs workers under
``multiprocessing``; a worker that inherits — or fails to inherit — a
parent's module-level mutable state silently diverges from a serial
run.  The runtime defence is :mod:`repro.engine.process_state`
(``snapshot_all``/``reset_all``/``fork_guard``); this rule is the
static half of the contract: **any module-level object in a ranked sim
layer that is mutated from function scope must be registered**, by a
``process_state.register("<module>.<name>", ...)`` call in the module
that owns it.

What counts as mutation (collected project-wide by the call graph, so
a mutation in *any* module convicts the global in its *owner* module):

* a ``global`` rebind (``_DEFAULT_MAX_CYCLES = limit``),
* an attribute store (``HOOKS.active = sink``),
* a subscript store or delete (``_TRACE_MEMO[key] = v``),
* an in-place mutator call (``cache.clear()``, ``queue.append(x)``),

in each case resolved through import aliases back to a module-level
global.  Mutation at module scope (building a constant in steps, like
the recursive schema dicts) is initialisation, not process state, and
is exempt — as are module-level constants that are never mutated at
all (``BENCHMARKS``, the schema tables): a mutable *container* is only
process state once something actually writes to it after import.

:mod:`repro.engine.process_state` itself is the one exempt module —
the registry cannot register its own slot table, for the same reason
the baseline file is not itself baselined.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from .callgraph import GlobalMutation, PROCESS_STATE_MODULE
from .findings import Finding
from .imports import rank_of
from .modules import SourceModule


def check_process_state(module: SourceModule, project) -> Iterator[Finding]:
    """SL007: unregistered function-scope-mutated module-level state."""
    if not module.module or module.module == PROCESS_STATE_MODULE:
        return
    if rank_of(module.module) is None:
        return
    graph = project.callgraph
    symbols = project.symbols.by_path.get(module.display_path)
    if symbols is None:
        return
    by_global: Dict[str, List[GlobalMutation]] = {}
    for mutation in graph.mutations:
        if mutation.owner_module == module.module:
            by_global.setdefault(mutation.name, []).append(mutation)
    if not by_global:
        return
    registered = {registration.name
                  for registrations in graph.registrations.values()
                  for registration in registrations
                  if registration.name}
    for name in sorted(by_global):
        dotted = f"{module.module}.{name}"
        if dotted in registered:
            continue
        var = symbols.globals.get(name)
        if var is None:
            continue
        first = min(by_global[name], key=lambda m: (m.path, m.lineno))
        yield Finding(
            code="SL007", path=module.display_path,
            line=var.lineno, col=0,
            message=(f"module-level {name} is process-wide mutable state "
                     f"({first.kind} at {first.path}:{first.lineno}) but is "
                     f"not registered with repro.engine.process_state; call "
                     f"process_state.register({dotted!r}, snapshot=..., "
                     f"reset=...) in this module so reset_all()/fork_guard() "
                     f"keep worker processes byte-identical to serial runs"),
            symbol=f"{name}:process-state")
