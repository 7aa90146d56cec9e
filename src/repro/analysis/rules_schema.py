"""SL009 — schema/stats drift: results payloads match their schemas.

``repro.obs`` validates every results document against a JSON-schema
table at *runtime* — but only on the code paths a given run exercises,
and only for the keys the schema happens to mention.  Three kinds of
drift slip through and are caught here statically:

* **payload-key drift** — a producer function gains or renames a key
  without the schema following (or vice versa: a schema grows a
  ``required`` key no producer emits).  Each producer in
  :data:`SCHEMA_CONTRACTS` must emit every ``required`` key of its
  schema, and must emit no key outside the schema's ``properties``.
* **mirror-literal drift** — deliberately duplicated constants
  (``campaign.OUTCOMES`` / ``schema.FAULT_OUTCOMES``: duplicated
  because ``obs`` is rank-1 and must not import rank-3 ``robust``)
  must stay element-for-element identical.
* **stats-name drift** — the profiler's attribution rules read stats
  scalars by name (``scalars.get("row_hits", 0)``); a name no
  component registers silently attributes zero cycles.  Every consumed
  name must match a registered counter/gauge literal, an f-string
  registration pattern (``f"{name}_latency"`` matches as
  ``*_latency``), or a numeric field of a ``*Stats`` dataclass block.

Producers and schemas are resolved through the project symbol table,
so a rename on either side breaks the contract loudly instead of
silently skipping the check.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatchcase
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .findings import Finding
from .modules import SourceModule
from .symbols import ModuleSymbols, SymbolTable, attribute_chain

#: producer module -> (producer qualname, schema module, schema global).
#: The producer's returned dict is checked against the schema's
#: ``required`` / ``properties`` key sets.
SCHEMA_CONTRACTS = {
    "repro.obs.manifest": ("RunManifest.to_dict",
                           "repro.obs.schema", "MANIFEST_SCHEMA"),
    "repro.obs.export": ("run_document",
                         "repro.obs.schema", "RUN_SCHEMA"),
    "repro.obs.metrics": ("metrics_document",
                          "repro.obs.schema", "METRICS_SCHEMA"),
    "repro.obs.profile": ("profile_document",
                          "repro.obs.schema", "PROFILE_SCHEMA"),
    "repro.robust.campaign": ("run_campaign",
                              "repro.obs.schema", "FAULTS_SCHEMA"),
}

#: Pairs of module-level tuple/list constants that must stay equal.
#: Anchored at (and reported against) the first member's module.
MIRROR_LITERALS = (
    (("repro.robust.campaign", "OUTCOMES"),
     ("repro.obs.schema", "FAULT_OUTCOMES")),
)

#: module -> local names whose ``.get("<stat>", ...)`` reads must name a
#: registered stat (the profiler's scalars dicts).
STATS_CONSUMERS = {
    "repro.obs.profile": ("scalars",),
}


# -- producer/schema key extraction ------------------------------------------

def _produced_keys(func_node: ast.AST) -> Optional[Set[str]]:
    """Keys of the dict(s) *func_node* returns, or None if opaque.

    Handles ``return {...}``, ``var = {...}`` / ``var: T = {...}``
    followed by ``return var``, and conditional ``var["key"] = ...``
    stores on the returned variable.
    """
    returned_names: Set[str] = set()
    literal_keys: Set[str] = set()
    saw_return = False
    assigned: Dict[str, Set[str]] = {}
    subscripted: Dict[str, Set[str]] = {}
    for node in ast.walk(func_node):
        if isinstance(node, ast.Return) and node.value is not None:
            saw_return = True
            if isinstance(node.value, ast.Dict):
                keys = _dict_keys(node.value)
                if keys is None:
                    return None
                literal_keys |= keys
            elif isinstance(node.value, ast.Name):
                returned_names.add(node.value.id)
            else:
                return None
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            value = node.value
            if not isinstance(value, ast.Dict):
                continue
            keys = _dict_keys(value)
            if keys is None:
                return None
            for target in targets:
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, set()).update(keys)
        elif isinstance(node, ast.Subscript) and \
                isinstance(node.value, ast.Name) and \
                isinstance(node.ctx, ast.Store) and \
                isinstance(node.slice, ast.Constant) and \
                isinstance(node.slice.value, str):
            subscripted.setdefault(node.value.id, set()).add(
                node.slice.value)
    if not saw_return:
        return None
    produced = set(literal_keys)
    for name in returned_names:
        if name not in assigned:
            return None
        produced |= assigned[name] | subscripted.get(name, set())
    return produced


def _dict_keys(node: ast.Dict) -> Optional[Set[str]]:
    """String keys of a dict literal; None when any key is dynamic."""
    keys: Set[str] = set()
    for key in node.keys:
        if key is None:           # **spread: contents unknowable
            return None
        if not (isinstance(key, ast.Constant) and
                isinstance(key.value, str)):
            return None
        keys.add(key.value)
    return keys


def _schema_key_sets(symbols: ModuleSymbols, schema_name: str
                     ) -> Optional[Tuple[Set[str], Optional[Set[str]]]]:
    """(required, properties) key sets of a schema global, statically."""
    var = symbols.globals.get(schema_name)
    if var is None or not isinstance(var.value, ast.Dict):
        return None
    required: Set[str] = set()
    properties: Optional[Set[str]] = None
    for key, value in zip(var.value.keys, var.value.values):
        if not (isinstance(key, ast.Constant) and
                isinstance(key.value, str)):
            continue
        if key.value == "required" and \
                isinstance(value, (ast.List, ast.Tuple)):
            required = {e.value for e in value.elts
                        if isinstance(e, ast.Constant)
                        and isinstance(e.value, str)}
        elif key.value == "properties" and isinstance(value, ast.Dict):
            keys = _dict_keys(value)
            properties = keys if keys is not None else None
    return required, properties


def _find_producer(symbols: ModuleSymbols, qualname: str
                   ) -> Optional[ast.AST]:
    if "." in qualname:
        class_name, method = qualname.split(".", 1)
        klass = symbols.classes.get(class_name)
        if klass is None or method not in klass.methods:
            return None
        return klass.methods[method].node
    func = symbols.functions.get(qualname)
    return func.node if func is not None else None


def _check_contract(module: SourceModule, symbols: ModuleSymbols,
                    table: SymbolTable) -> Iterator[Finding]:
    qualname, schema_module, schema_name = SCHEMA_CONTRACTS[module.module]
    func_node = _find_producer(symbols, qualname)
    if func_node is None:
        yield Finding(
            code="SL009", path=module.display_path, line=1, col=0,
            message=(f"schema contract expects producer {qualname} in this "
                     f"module (checked against {schema_module}."
                     f"{schema_name}); it was renamed or removed — update "
                     f"SCHEMA_CONTRACTS in repro.analysis.rules_schema"),
            symbol=f"{qualname}:missing-producer")
        return
    schema_owner = table.module(schema_module)
    if schema_owner is None:
        return                    # partial lint run without the obs layer
    spec = _schema_key_sets(schema_owner, schema_name)
    if spec is None:
        yield Finding(
            code="SL009", path=module.display_path,
            line=func_node.lineno, col=0,
            message=(f"schema global {schema_module}.{schema_name} (the "
                     f"contract for {qualname}) is missing or no longer a "
                     f"dict literal — update SCHEMA_CONTRACTS in "
                     f"repro.analysis.rules_schema"),
            symbol=f"{qualname}:missing-schema")
        return
    required, properties = spec
    produced = _produced_keys(func_node)
    if produced is None:
        yield Finding(
            code="SL009", path=module.display_path,
            line=func_node.lineno, col=0,
            message=(f"cannot statically extract the payload keys "
                     f"{qualname} produces (dynamic keys or opaque "
                     f"return); build the document as a dict literal so "
                     f"the {schema_name} contract stays checkable"),
            symbol=f"{qualname}:opaque-payload")
        return
    for key in sorted(required - produced):
        yield Finding(
            code="SL009", path=module.display_path,
            line=func_node.lineno, col=0,
            message=(f"{qualname} never emits {key!r}, but "
                     f"{schema_module}.{schema_name} lists it as required; "
                     f"every document it produces will fail validation"),
            symbol=f"{qualname}:{key}:missing-key")
    if properties is not None:
        for key in sorted(produced - properties):
            yield Finding(
                code="SL009", path=module.display_path,
                line=func_node.lineno, col=0,
                message=(f"{qualname} emits {key!r}, which "
                         f"{schema_module}.{schema_name} does not declare "
                         f"in its properties; add it to the schema (or "
                         f"drop it) so the payload stays fully validated"),
                symbol=f"{qualname}:{key}:undeclared-key")


# -- mirror literals ----------------------------------------------------------

def _literal_elements(symbols: Optional[ModuleSymbols],
                      name: str) -> Optional[Tuple[str, ...]]:
    if symbols is None:
        return None
    var = symbols.globals.get(name)
    if var is None or not isinstance(var.value, (ast.Tuple, ast.List)):
        return None
    elements: List[str] = []
    for element in var.value.elts:
        if not (isinstance(element, ast.Constant) and
                isinstance(element.value, str)):
            return None
        elements.append(element.value)
    return tuple(elements)


def _check_mirrors(module: SourceModule, symbols: ModuleSymbols,
                   table: SymbolTable) -> Iterator[Finding]:
    for (mod_a, name_a), (mod_b, name_b) in MIRROR_LITERALS:
        if module.module != mod_a:
            continue
        if table.module(mod_b) is None:
            continue              # partial lint run
        a = _literal_elements(symbols, name_a)
        b = _literal_elements(table.module(mod_b), name_b)
        var = symbols.globals.get(name_a)
        line = var.lineno if var is not None else 1
        if a is None or b is None:
            missing = f"{mod_a}.{name_a}" if a is None else \
                f"{mod_b}.{name_b}"
            yield Finding(
                code="SL009", path=module.display_path, line=line, col=0,
                message=(f"mirror literal {missing} is missing or not a "
                         f"tuple/list of string constants — update "
                         f"MIRROR_LITERALS in repro.analysis.rules_schema"),
                symbol=f"{name_a}:missing-mirror")
        elif a != b:
            yield Finding(
                code="SL009", path=module.display_path, line=line, col=0,
                message=(f"{mod_a}.{name_a} {a!r} has drifted from its "
                         f"mirror {mod_b}.{name_b} {b!r}; these are "
                         f"deliberately duplicated (layering forbids the "
                         f"import) and must stay identical"),
                symbol=f"{name_a}:mirror-drift")


# -- stats-name references ----------------------------------------------------

def _registered_stat_names(table: SymbolTable
                           ) -> Tuple[Set[str], Set[str]]:
    """(exact names, fnmatch patterns) of every registered stat.

    Sources: string-literal ``counter()``/``gauge()`` calls, f-string
    registrations (each interpolated piece becomes ``*``), and the
    field names of ``*Stats`` dataclass blocks (adopted wholesale via
    ``own_block``/``register_block``).
    """
    names: Set[str] = set()
    patterns: Set[str] = set()
    for symbols in table.modules():
        for node in ast.walk(symbols.source.tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in ("counter", "gauge") and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and \
                        isinstance(arg.value, str):
                    names.add(arg.value)
                elif isinstance(arg, ast.JoinedStr):
                    pattern = "".join(
                        part.value if isinstance(part, ast.Constant)
                        and isinstance(part.value, str) else "*"
                        for part in arg.values)
                    patterns.add(pattern)
        for klass in symbols.classes.values():
            if not klass.name.endswith("Stats"):
                continue
            for child in klass.node.body:
                if isinstance(child, ast.AnnAssign) and \
                        isinstance(child.target, ast.Name) and \
                        not child.target.id.startswith("_"):
                    names.add(child.target.id)
    return names, patterns


def _check_stats_refs(module: SourceModule,
                      table: SymbolTable) -> Iterator[Finding]:
    consumer_vars = STATS_CONSUMERS.get(module.module)
    if not consumer_vars:
        return
    names, patterns = _registered_stat_names(table)
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call) and
                isinstance(node.func, ast.Attribute) and
                node.func.attr == "get" and node.args):
            continue
        chain = attribute_chain(node.func.value)
        if len(chain) != 1 or chain[0] not in consumer_vars:
            continue
        arg = node.args[0]
        if not (isinstance(arg, ast.Constant) and
                isinstance(arg.value, str)):
            continue
        stat = arg.value
        if stat in names or \
                any(fnmatchcase(stat, pattern) for pattern in patterns):
            continue
        yield Finding(
            code="SL009", path=module.display_path,
            line=node.lineno, col=node.col_offset,
            message=(f"profiler reads stat {stat!r}, but no component "
                     f"registers a counter/gauge or Stats-block field "
                     f"with that name; the rule will silently attribute "
                     f"zero cycles — fix the name on whichever side "
                     f"drifted"),
            symbol=f"{stat}:unknown-stat")


def check_schema_drift(module: SourceModule, project) -> Iterator[Finding]:
    """SL009: payload/schema, mirror-literal and stats-name drift."""
    table = project.symbols
    symbols = table.by_path.get(module.display_path)
    if symbols is None:
        return
    if module.module in SCHEMA_CONTRACTS:
        yield from _check_contract(module, symbols, table)
    yield from _check_mirrors(module, symbols, table)
    yield from _check_stats_refs(module, table)
