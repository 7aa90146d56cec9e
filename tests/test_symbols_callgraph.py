"""Tests for the whole-program analysis infrastructure.

Covers the project symbol table (import aliasing, ``from x import y``,
method resolution through Component-style base classes) and the call
graph (edges, reachability, the global-mutation census and hook-site
guard detection) — both over synthetic in-memory trees and over the
real repository source.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis.callgraph import CallGraph
from repro.analysis.modules import SourceModule, collect_modules
from repro.analysis.symbols import QualifiedRef, SymbolTable, attribute_chain

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_module(tmp_path, dotted, source):
    """A SourceModule with an explicit dotted name, parsed from text."""
    rel = Path(*dotted.split(".")).with_suffix(".py")
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return SourceModule(path=path, display_path=str(rel),
                        module=dotted, tree=ast.parse(source),
                        disabled={})


@pytest.fixture
def mini_project(tmp_path):
    tracing = make_module(tmp_path, "repro.engine.tracing", """
class TraceHooks:
    def __init__(self):
        self.active = None

HOOKS = TraceHooks()
""")
    component = make_module(tmp_path, "repro.engine.component", """
from .tracing import HOOKS

class Component:
    def trace_event(self, kind):
        sink = HOOKS.active
        if sink is not None:
            sink.emit(kind)

    def helper(self):
        return self.trace_event("helper")
""")
    tlb = make_module(tmp_path, "repro.core.tlb", """
from ..engine.component import Component
from ..engine.tracing import HOOKS as H

CACHE = {}

class TLB(Component):
    def fill(self, vpn):
        CACHE[vpn] = True
        self.trace_event("fill")

    def spill(self, vpn):
        H.active.emit("spill", vpn)
""")
    driver = make_module(tmp_path, "repro.eval.driver", """
from ..core import tlb as tlb_mod
from ..core.tlb import TLB, CACHE

def run():
    device = TLB()
    device.fill(1)
    CACHE.clear()

def tweak():
    tlb_mod.CACHE[9] = False
""")
    modules = [tracing, component, tlb, driver]
    return modules, SymbolTable(modules)


class TestAttributeChain:
    def test_chains(self):
        assert attribute_chain(ast.parse("a.b.c", mode="eval").body) == \
            ["a", "b", "c"]
        assert attribute_chain(ast.parse("x", mode="eval").body) == ["x"]
        assert attribute_chain(ast.parse("f().y", mode="eval").body) == []


class TestSymbolTable:
    def test_from_import_alias(self, mini_project):
        _, table = mini_project
        component = table.module("repro.engine.component")
        ref = table.resolve(component, ["HOOKS", "active"])
        assert ref == QualifiedRef("repro.engine.tracing", "HOOKS",
                                   ("active",))

    def test_renamed_import_alias(self, mini_project):
        _, table = mini_project
        tlb = table.module("repro.core.tlb")
        ref = table.resolve(tlb, ["H", "active", "emit"])
        assert ref.module == "repro.engine.tracing"
        assert ref.symbol == "HOOKS"
        assert ref.attrs == ("active", "emit")

    def test_module_alias_resolves_through_submodule(self, mini_project):
        _, table = mini_project
        driver = table.module("repro.eval.driver")
        ref = table.resolve(driver, ["tlb_mod", "CACHE"])
        assert ref == QualifiedRef("repro.core.tlb", "CACHE")

    def test_local_names_resolve_to_own_module(self, mini_project):
        _, table = mini_project
        tlb = table.module("repro.core.tlb")
        ref = table.resolve(tlb, ["CACHE"])
        assert ref == QualifiedRef("repro.core.tlb", "CACHE")
        assert table.lookup_global(ref) is not None

    def test_unknown_names_resolve_to_none(self, mini_project):
        _, table = mini_project
        tlb = table.module("repro.core.tlb")
        assert table.resolve(tlb, ["os", "path"]) is None

    def test_method_resolution_through_base(self, mini_project):
        _, table = mini_project
        tlb_class = table.module("repro.core.tlb").classes["TLB"]
        resolved = table.resolve_method(tlb_class, "trace_event")
        assert resolved is not None
        assert resolved.module == "repro.engine.component"
        assert resolved.qualname == "Component.trace_event"

    def test_mro_order(self, mini_project):
        _, table = mini_project
        tlb_class = table.module("repro.core.tlb").classes["TLB"]
        names = [klass.name for klass in table.mro(tlb_class)]
        assert names == ["TLB", "Component"]


class TestCallGraph:
    @pytest.fixture
    def graph(self, mini_project):
        _, table = mini_project
        return CallGraph(table)

    def test_self_method_edge_through_mro(self, graph):
        edges = graph.edges["repro.core.tlb:TLB.fill"]
        assert "repro.engine.component:Component.trace_event" in edges

    def test_constructor_and_method_edges(self, graph):
        edges = graph.edges["repro.eval.driver:run"]
        assert "repro.engine.component:Component.trace_event" not in edges
        # TLB() has no __init__ of its own or inherited: no ctor edge,
        # but device.fill is a local alias the graph can't track —
        # the direct ClassName.method form is, via the class.
        assert isinstance(edges, set)

    def test_reachability(self, graph):
        reached = graph.reachable({"repro.core.tlb:TLB.fill"})
        assert "repro.engine.component:Component.trace_event" in reached

    def test_mutation_census(self, graph):
        mutated = graph.mutated_globals()
        assert ("repro.core.tlb", "CACHE") in mutated
        kinds = {(m.kind, m.owner_module, m.name) for m in graph.mutations}
        # Subscript store in TLB.fill and in driver.tweak (via the
        # module alias), plus the mutating .clear() call in driver.run.
        assert ("subscript-store", "repro.core.tlb", "CACHE") in kinds

    def test_cross_module_mutation_attributed_to_owner(self, graph):
        sites = [m for m in graph.mutations
                 if m.name == "CACHE" and "driver" in m.path]
        assert sites, "driver.py mutations of CACHE must be recorded"
        assert all(m.owner_module == "repro.core.tlb" for m in sites)

    def test_hook_sites_and_guards(self, graph):
        by_func = {site.func: site for site in graph.hook_sites}
        aliased = by_func["repro.engine.component:Component.trace_event"]
        assert aliased.guarded, "alias guard (sink = HOOKS.active)"
        unguarded = by_func["repro.core.tlb:TLB.spill"]
        assert not unguarded.guarded
        assert unguarded.slot == "active"


class TestOnRealRepo:
    """The infrastructure must hold on the actual source tree."""

    @pytest.fixture(scope="class")
    def real(self):
        modules = collect_modules([REPO_ROOT / "src"], root=REPO_ROOT)
        table = SymbolTable(modules)
        return table, CallGraph(table)

    def test_known_process_state_registrations(self, real):
        _, graph = real
        names = {registration.name
                 for registrations in graph.registrations.values()
                 for registration in registrations}
        assert "repro.engine.tracing.HOOKS" in names
        assert "repro.engine.clock._DEFAULT_MAX_CYCLES" in names
        assert "repro.workloads.spec_like._TRACE_MEMO" in names

    def test_every_real_hook_site_is_guarded(self, real):
        _, graph = real
        unguarded = [site for site in graph.hook_sites if not site.guarded]
        assert unguarded == []
        assert len(graph.hook_sites) >= 25

    def test_component_subclass_method_resolution(self, real):
        table, _ = real
        tlb_module = table.module("repro.core.tlb")
        tlb_classes = [klass for klass in tlb_module.classes.values()
                       if table.resolve_method(klass, "trace_event")]
        assert tlb_classes, "some TLB class must inherit trace_event"

    def test_mutated_globals_are_the_registered_set(self, real):
        table, graph = real
        ranked_prefixes = ("repro.engine.", "repro.core.", "repro.mem.",
                          "repro.workloads.")
        mutated = {f"{owner}.{name}"
                   for owner, name in graph.mutated_globals()
                   if owner.startswith(ranked_prefixes)
                   and owner != "repro.engine.process_state"}
        registered = {registration.name
                      for registrations in graph.registrations.values()
                      for registration in registrations}
        assert mutated <= registered, mutated - registered
