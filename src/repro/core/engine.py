"""Analysis stage: forward taint propagation over the AST.

This is the paper's Section III.C engine.  It follows tainted variables
"from the moment they enter the application/plugin until they reach the
output", maintaining the ``parser_variables`` store per scope, applying
knowledge-base sources/filters/reverts/sinks, summarizing every
user-defined function once (function summaries), joining branches of
conditionals and loops, and resolving OOP constructs through the class
table and the known-instance registry (``$wpdb`` & co.).

The same engine, parameterized by :class:`EngineOptions`, also powers
the RIPS-like and Pixy-like baselines: their capability envelopes are
expressed as option/profile differences rather than separate engines,
which keeps the comparison experiments about *capabilities*, not
implementation accidents.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from ..config.entries import PropagationSpec
from ..config.profiles import AnalyzerProfile
from ..config.vulnerability import ALL_KINDS, InputVector, VulnKind
from ..incidents import Incident, IncidentSeverity, IncidentStage
from ..perf import counters
from ..php import ast_nodes as ast
from ..php.htmlcontext import context_at_end
from ..php.printer import print_expr
from .model import FunctionInfo, PluginModel
from .oop import ClassPropertyStore, join_class_names
from .results import Finding
from .taint import ConcreteSource, Label, ParamRef, TaintState, VariableRecord

#: Builtins whose return propagates the taint of their arguments.
PASSTHROUGH_FUNCTIONS = frozenset(
    {
        "trim", "ltrim", "rtrim", "strtolower", "strtoupper", "ucfirst", "ucwords",
        "lcfirst", "substr", "str_replace", "str_ireplace", "preg_replace", "sprintf",
        "vsprintf", "implode", "join", "str_pad", "str_repeat", "strrev", "nl2br",
        "wordwrap", "chunk_split", "strtr", "stristr", "strstr", "substr_replace",
        "array_merge", "array_values", "array_keys", "array_pop", "array_shift",
        "array_slice", "array_splice", "array_reverse", "array_filter", "array_map",
        "array_unique", "array_combine", "array_flip", "compact", "current", "reset",
        "end", "next", "prev", "each", "serialize", "unserialize", "json_decode",
        "maybe_unserialize", "wp_unslash", "apply_filters", "do_shortcode",
        "shortcode_atts", "wp_parse_args", "force_balance_tags", "stripslashes_deep",
        "var_export", "print_r",
    }
)

#: Builtins returning clean (numeric/boolean/structural) values.
CLEAN_FUNCTIONS = frozenset(
    {
        "time", "date", "mktime", "rand", "mt_rand", "uniqid", "number_format",
        "round", "floor", "ceil", "min", "max", "pow", "sqrt", "array_sum",
        "in_array", "array_search", "array_key_exists", "function_exists",
        "class_exists", "method_exists", "defined", "is_array", "is_string",
        "is_numeric", "is_int", "is_object", "is_null", "file_exists", "is_dir",
        "is_file", "preg_match", "preg_match_all", "strcmp", "strcasecmp", "strpos",
        "stripos", "strrpos", "version_compare", "checked", "selected", "disabled",
    }
)


@dataclass
class EngineOptions:
    """Capability envelope switches (also the ablation knobs of A1)."""

    #: Resolve OOP: method calls, ``$this``, properties, known instances.
    oop: bool = True
    #: Analyze functions never called from plugin code (entry points).
    analyze_uncalled: bool = True
    #: When analyzing uncalled code, include class methods (RIPS scans
    #: method bodies procedurally; Pixy skips them entirely).
    analyze_methods_standalone: bool = True
    #: Memoize function summaries (paper: "every function is analyzed
    #: only the first time it is called").  Off = re-analyze per call.
    use_summaries: bool = True
    #: Node-visit budget per plugin; exceeding aborts remaining analysis.
    step_budget: int = 4_000_000
    #: Maximum include nesting depth followed inline.
    max_include_depth: int = 16
    #: Cap on flow-trace length kept per value (reporting only).
    max_trace: int = 12
    #: Kinds checked at language-construct sinks (backticks, include):
    #: a 2007-era tool like Pixy never looks beyond XSS/SQLi.
    construct_kinds: frozenset = ALL_KINDS
    #: What an unknown function call returns: "clean" trusts unknown
    #: code (phpSAFE: unknown CMS helpers are assumed safe, keeping
    #: false positives low), "propagate" forwards argument taint (RIPS:
    #: unknown functions are not sanitizers, so WordPress-escaped flows
    #: like ``echo esc_html($_GET[...])`` are still reported — the
    #: false-positive population Table I measures for RIPS).
    unknown_call_policy: str = "clean"
    #: Per-unit fault isolation (paper Section V.E robustness): each
    #: analysis unit — a function summary or a top-level file walk —
    #: runs inside its own fault boundary, so one pathological unit
    #: degrades to a recorded incident instead of aborting the plugin.
    #: ``False`` reproduces the historical all-or-nothing behaviour.
    recover: bool = False
    #: Step-budget slice per analysis unit (None = only the plugin-wide
    #: ``step_budget`` applies).  Only honoured with ``recover=True``.
    unit_step_budget: Optional[int] = None
    #: Wall-clock deadline per analysis unit, in seconds (None = no
    #: deadline).  Gives the serial path the timeout the batch path gets
    #: from SIGALRM.  Only honoured with ``recover=True``.
    unit_deadline: Optional[float] = None
    #: AST-evaluation depth cap under ``recover=True``: degenerate
    #: nesting (one-line concat chains of thousands of terms) trips a
    #: unit fault instead of a ``RecursionError`` deep in the stack.
    max_eval_depth: int = 500
    #: Record per-unit state footprints (globals/properties/statics read
    #: and written, dependency files) for incremental rescans.  Off by
    #: default: plain scans pay nothing for the bookkeeping.
    track_units: bool = False
    #: Root files whose analysis units are skipped because a prior scan
    #: manifest proved them unchanged and uncoupled; their findings are
    #: carried forward by the incremental driver.  Requires
    #: ``recover=True`` (the unit structure is what gets skipped).
    reuse_roots: FrozenSet[str] = frozenset()


#: the interned all-clean taint state, hoisted for Value's default — a
#: function-call default_factory is measurable at Value-construction rates
_CLEAN_STATE = TaintState.clean()


class Value:
    """Abstract value of an expression: taint + optional object type.

    A ``__slots__`` value class rather than a dataclass: the engine
    builds one per expression evaluation, so per-instance dict
    allocation and default-factory calls are the hottest allocation
    site in the analyzer.
    """

    __slots__ = ("taint", "class_name", "trace", "name_hint")

    def __init__(
        self,
        taint: TaintState = _CLEAN_STATE,
        class_name: str = "",
        trace: Tuple[str, ...] = (),
        name_hint: str = "",
    ) -> None:
        self.taint = taint
        self.class_name = class_name
        self.trace = trace
        self.name_hint = name_hint

    def __repr__(self) -> str:
        return (
            f"Value(taint={self.taint!r}, class_name={self.class_name!r}, "
            f"trace={self.trace!r}, name_hint={self.name_hint!r})"
        )

    @classmethod
    def clean(cls) -> "Value":
        return cls()

    def joined(self, other: "Value") -> "Value":
        return Value(
            taint=self.taint.joined(other.taint),
            class_name=join_class_names((self.class_name, other.class_name)),
            trace=_merge_trace(self.trace, other.trace),
            name_hint=self.name_hint or other.name_hint,
        )


def _merge_trace(left: Tuple[str, ...], right: Tuple[str, ...]) -> Tuple[str, ...]:
    merged = list(left)
    for step in right:
        if step not in merged:
            merged.append(step)
    return tuple(merged[-12:])


@dataclass
class SinkEvent:
    """Tainted data reached a sensitive sink (pre-finding)."""

    kind: VulnKind
    sink: str
    file: str
    line: int
    variable: str
    taint: TaintState
    trace: Tuple[str, ...] = ()
    via_oop: bool = False
    markup_context: str = ""
    #: root file of the analysis unit that produced the event (only
    #: populated under ``track_units``); incremental rescans carry a
    #: skipped root's findings forward by this attribution
    unit: str = ""

    def substituted(self, mapping: Dict[Label, TaintState]) -> "SinkEvent":
        # hand-rolled ``dataclasses.replace``: summary application calls
        # this once per recorded event per call site
        clone = SinkEvent.__new__(SinkEvent)
        clone.__dict__.update(self.__dict__)
        clone.__dict__["taint"] = self.taint.substituted(mapping)
        return clone


@dataclass
class FunctionSummary:
    """Reusable effect of one user-defined function (paper: "the summary
    of this analysis is reused in subsequent calls")."""

    key: str
    return_taint: TaintState = field(default_factory=TaintState.clean)
    return_class: str = ""
    sink_events: List[SinkEvent] = field(default_factory=list)
    ref_param_writes: Dict[int, TaintState] = field(default_factory=dict)
    #: (class lower, prop) -> taint written (may hold ParamRefs, which
    #: are substituted with the caller's arguments at each call site)
    prop_writes: Dict[Tuple[str, str], TaintState] = field(default_factory=dict)
    #: files whose definitions this summary was computed from: the
    #: defining file plus every file holding a callee body or a class
    #: consulted during method/property resolution
    dep_files: Set[str] = field(default_factory=set)
    #: lookups that found nothing ("fn:name" / "class:name"); the
    #: summary stays valid only while they keep finding nothing
    dep_unresolved: Set[str] = field(default_factory=set)
    #: ``dep_files`` pinned to content digests at persist time; the
    #: cross-run cache revalidates these against the current model
    dep_digests: Dict[str, str] = field(default_factory=dict)
    #: the body read global state at summarize time — order-dependent,
    #: so never persisted across runs
    uses_globals: bool = False
    #: the body declares ``static`` locals — their cross-call slots live
    #: in the engine, so the summary is never persisted across runs
    uses_statics: bool = False
    #: placeholder written by a unit fault boundary — never persisted
    faulted: bool = False
    #: global variable names the body read (``global $x``) / wrote
    #: through a global alias — name-level state coupling used by the
    #: incremental planner; only set on non-persisted summaries since
    #: ``uses_globals`` blocks persistence
    global_reads: Set[str] = field(default_factory=set)
    global_writes: Set[str] = field(default_factory=set)
    #: "class|prop" keys the body read (expanded over the ancestor
    #: chain, matching finalize-time property resolution)
    prop_reads: Set[str] = field(default_factory=set)
    #: "static:<owner>" slots the body touched
    static_tokens: Set[str] = field(default_factory=set)

    def __setstate__(self, state: Dict[str, object]) -> None:
        # summaries pickled by older versions lack the state-coupling
        # sets; default them so cached objects stay loadable
        self.__dict__.update(state)
        for name in ("global_reads", "global_writes", "prop_reads", "static_tokens"):
            if name not in self.__dict__:
                self.__dict__[name] = set()


def summary_is_valid(summary: FunctionSummary, model: PluginModel,
                     digests: Dict[str, str]) -> bool:
    """Can a persisted summary be reused against the current model?"""
    for path, digest in summary.dep_digests.items():
        if digests.get(path) != digest:
            return False
    for token in summary.dep_unresolved:
        kind, _, name = token.partition(":")
        if kind == "fn":
            if model.lookup_function(name) is not None:
                return False
        elif model.lookup_class(name) is not None:
            return False
    return True


@dataclass
class UnitFootprint:
    """What the units rooted at one file touched outside themselves.

    Recorded only under ``EngineOptions.track_units``.  The incremental
    planner intersects read/write sets across scans: a root whose file
    digest, dependency files, and state couplings are all unchanged can
    be skipped on rescan with its findings carried forward.
    """

    #: files whose definitions the units consulted (callee bodies,
    #: classes, resolved includes)
    dep_files: Set[str] = field(default_factory=set)
    #: failed lookups ("fn:name" / "class:name") — a skip is only valid
    #: while they keep failing
    dep_unresolved: Set[str] = field(default_factory=set)
    #: global variable names read / effectively written (taint or class
    #: changed; trace-only churn is ignored — only finding signatures
    #: are promised stable)
    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    #: "class|prop" property keys read (expanded over ancestors) and
    #: written (at the declaring class)
    prop_reads: Set[str] = field(default_factory=set)
    prop_writes: Set[str] = field(default_factory=set)
    #: "static:<owner>" cross-call slots touched
    statics: Set[str] = field(default_factory=set)
    #: a unit under this root faulted — its effects are partial, so the
    #: root is never skippable
    faulted: bool = False


class Scope:
    """One lexical scope of ``parser_variables`` records."""

    __slots__ = (
        "name",
        "records",
        "written",
        "global_aliases",
        "ref_groups",
        "may_refs",
        "static_names",
        "static_slots",
        "is_global_image",
    )

    def __init__(self, name: str = "<main>") -> None:
        self.name = name
        self.records: Dict[str, VariableRecord] = {}
        #: names bound since this scope was copied (by :meth:`set` or a
        #: join's rebind); every other name still holds the record object
        #: it was copied with, which is what lets a join skip it
        self.written: Set[str] = set()
        #: names bound to the global scope via ``global $x`` — writes to
        #: these are mirrored into the global scope
        self.global_aliases: Set[str] = set()
        #: reference-alias groups from ``$b =& $a``: every member maps to
        #: the frozenset of the names denoting the same storage slot on
        #: every path (must-aliases; writes replace every member's
        #: record).  Groups are immutable — a change rebuilds the set —
        #: so branch snapshots can share the mapping by shallow copy.
        self.ref_groups: Dict[str, FrozenSet[str]] = {}
        #: may-aliases: a name maps to the names it shares a slot with on
        #: some paths but not all (an alias made inside a branch or loop
        #: body).  Symmetric, disjoint from the name's group; writes
        #: through it are weak — they join into the member's record.
        self.may_refs: Dict[str, FrozenSet[str]] = {}
        #: names declared ``static`` in this scope; writes to them are
        #: mirrored into the engine's per-function static slots
        self.static_names: Set[str] = set()
        #: the engine's slot dict for this scope's function (shared, so
        #: branch snapshots write through — statics only ever join)
        self.static_slots: Optional[Dict[str, TaintState]] = None
        #: True for the engine's global scope and its branch snapshots:
        #: reads against such a scope are global-state reads the
        #: incremental footprint tracker must record
        self.is_global_image = False

    def get(self, name: str) -> Optional[VariableRecord]:
        return self.records.get(name)

    def set(self, record: VariableRecord) -> None:
        self.records[record.name] = record
        self.written.add(record.name)

    def copy(self) -> "Scope":
        # records are immutable in practice (writes rebind via
        # ``updated()``) and taint states are interned values, so a
        # snapshot is a plain dict copy — no per-record cloning.  Global
        # aliases are deliberately NOT inherited: a branch snapshot must
        # not write through to the global scope for a path that may not
        # be taken (a ``global`` statement inside the branch re-binds).
        clone = Scope.__new__(Scope)  # skip __init__: fields set below
        clone.name = self.name
        clone.records = dict(self.records)
        clone.written = set()
        clone.global_aliases = set()
        # reference aliases and statics ARE inherited: they only affect
        # records inside the snapshot itself (joined back afterwards) or
        # monotone static slots, never an untaken path's global binding.
        clone.ref_groups = dict(self.ref_groups)
        clone.may_refs = dict(self.may_refs)
        clone.static_names = set(self.static_names)
        clone.static_slots = self.static_slots
        clone.is_global_image = self.is_global_image
        return clone

    def join_from(self, *branches: "Scope") -> None:
        """Merge branch outcomes into this scope (taint union).

        The scopes are copies of one pre-state, so a name none of them
        wrote since holds the same record object in all of them and its
        join is the identity: only the union of the written sets is
        visited, which makes a join cost what the branches changed, not
        the size of the scope.  Reference aliases and ``static``
        declarations are joined by :meth:`_join_declarations`.
        """
        names = set(self.written)
        for branch in branches:
            names |= branch.written
        scopes = (self, *branches)
        records = self.records
        for name in names:
            variants = [
                scope.records[name]
                for scope in scopes
                if name in scope.records
            ]
            if not variants:
                # written into the pre-state after the last snapshot was
                # taken (see ``_exec_branches``): no outcome holds it
                continue
            first = variants[0]
            for record in variants:
                if record is not first:
                    break
            else:
                # every path holds the same record object: the join is
                # the identity — taint states are interned, so this is exact
                records[name] = first
                continue
            taint = first.taint
            for record in variants[1:]:
                taint = taint.joined(record.taint)
            class_name = join_class_names(
                record.class_name or "" for record in variants
            )
            records[name] = variants[-1].updated(
                taint=taint, class_name=class_name or None
            )
        self.written = names
        self._join_declarations(branches)

    def _join_declarations(self, branches: Sequence["Scope"]) -> None:
        """Join the paths' reference aliases and ``static`` declarations.

        Two names stay must-aliases only if they share a slot on every
        path (the intersection of their groups); a pair that shares one
        on some paths only becomes a may-alias, so a write on one side
        cannot erase the other side's value on the paths where the alias
        does not hold.  Groups of different paths are never merged.
        ``static`` declarations are a union (their slots only ever join).
        """
        scopes = (self, *branches)
        if any(scope.ref_groups or scope.may_refs for scope in scopes):
            names: Set[str] = set()
            for scope in scopes:
                names.update(scope.ref_groups)
                names.update(scope.may_refs)
            groups: Dict[str, FrozenSet[str]] = {}
            may_refs: Dict[str, FrozenSet[str]] = {}
            for name in names:
                alone = frozenset((name,))
                must = self.ref_groups.get(name, alone)
                reach: Set[str] = set()
                for scope in scopes:
                    group = scope.ref_groups.get(name, alone)
                    must &= group
                    reach |= group
                    reach.update(scope.may_refs.get(name, ()))
                if len(must) > 1:
                    groups[name] = must
                reach -= must
                if reach:
                    may_refs[name] = frozenset(reach)
            self.ref_groups = groups
            self.may_refs = may_refs
        for branch in branches:
            if branch.static_names:
                self.static_names |= branch.static_names
                if self.static_slots is None:
                    self.static_slots = branch.static_slots


class BudgetExceeded(Exception):
    """Internal signal: plugin-wide step budget exhausted."""


class UnitFault(Exception):
    """Internal signal: one analysis unit failed; the rest continue.

    Raised inside a per-unit fault boundary when the unit's step-budget
    slice, wall-clock deadline, or evaluation-depth cap trips.  Caught
    at the unit boundary and converted into a recovered incident.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class TaintEngine:
    """Whole-plugin taint analysis over a :class:`PluginModel`."""

    def __init__(
        self,
        model: PluginModel,
        profile: AnalyzerProfile,
        options: Optional[EngineOptions] = None,
    ) -> None:
        self.model = model
        self.profile = profile
        self.options = options or EngineOptions()
        #: every kind this profile's specs mention; ``ALL_KINDS`` itself
        #: (same object — the ``from_label`` fast path is identity-based)
        #: unless rule packs introduced extra kinds
        self._kind_universe = profile.kind_universe()
        self.globals = Scope("<global>")
        self.globals.is_global_image = True
        self.class_props = ClassPropertyStore()
        for class_info in model.classes.values():
            if class_info.parent:
                self.class_props.parents[class_info.name.lower()] = (
                    class_info.parent.lower()
                )
        self.summaries: Dict[str, FunctionSummary] = {}
        self._in_progress: Set[str] = set()
        #: cross-call taint of ``static`` locals, keyed by owning
        #: function key then variable name; joins only, never resets
        self._static_store: Dict[str, Dict[str, TaintState]] = {}
        self.events: List[SinkEvent] = []
        self._steps = 0
        self._current_file = "<unknown>"
        self._summary_stack: List[FunctionSummary] = []
        self._include_stack: List[str] = []
        #: True only when the plugin-wide step budget is exhausted;
        #: per-unit faults are recorded in :attr:`incidents` instead
        self.aborted = False
        #: typed robustness incidents from per-unit fault boundaries
        self.incidents: List[Incident] = []
        self._unit_limit: Optional[int] = None
        self._deadline_at: Optional[float] = None
        self._depth = 0
        #: incremental-rescan bookkeeping (``track_units`` only)
        self.track = bool(self.options.track_units)
        #: per-root-file aggregated state footprints
        self.footprints: Dict[str, UnitFootprint] = {}
        self._unit_fp: Optional[UnitFootprint] = None
        self._unit_root = ""
        #: function key -> root file under which a uses_globals /
        #: uses_statics summary was first computed; such summaries are
        #: order-dependent, so the planner pins them to their root
        self.state_summary_roots: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def run(self) -> List[Finding]:
        """Analyze the whole plugin and return deduplicated findings."""
        start = time.perf_counter()
        steps_before = self._steps
        try:
            if self.options.recover:
                return self._run_isolated()
            return self._run_strict()
        finally:
            counters.analysis_seconds += time.perf_counter() - start
            counters.engine_steps += self._steps - steps_before

    def _run_strict(self) -> List[Finding]:
        """Historical all-or-nothing analysis (``recover=False``)."""
        try:
            if self.options.analyze_uncalled:
                self._summarize_all_functions()
            for path, file_model in sorted(self.model.files.items()):
                self._current_file = path
                self._include_stack = [path]
                self._exec_block(file_model.tree.statements, self.globals)
            if self.options.analyze_uncalled:
                self._emit_uncalled_events()
        except BudgetExceeded:
            self.aborted = True
        return self._finalize_findings()

    def _run_isolated(self) -> List[Finding]:
        """Fault-isolated analysis: every unit in its own boundary.

        Analysis units — entry-point function summaries, top-level file
        walks, and the late summaries of :meth:`_emit_uncalled_events` —
        each run under :meth:`_run_unit`, so one pathological unit
        degrades to an incident while the rest complete.  Only the
        plugin-wide step budget (``BudgetExceeded``) still stops the
        remaining units, mirroring the strict path.
        """
        standalone = self.options.oop or self.options.analyze_methods_standalone
        reuse = self.options.reuse_roots
        if self.options.analyze_uncalled:
            for info in self.model.uncalled_functions():
                if self.aborted:
                    break
                if info.is_method and not standalone:
                    continue
                if info.file in reuse:
                    continue
                self._run_unit(
                    f"function {info.key}",
                    info.file,
                    lambda info=info: self._summarize(info),
                    summary_key=info.key,
                )
        for path, file_model in sorted(self.model.files.items()):
            if self.aborted:
                break
            if path in reuse:
                continue

            def run_file(path=path, file_model=file_model):
                self._current_file = path
                self._include_stack = [path]
                self._exec_block(file_model.tree.statements, self.globals)

            self._run_unit("<main>", path, run_file)
        if self.options.analyze_uncalled:
            for key, info in sorted(self.model.functions.items()):
                if self.aborted:
                    break
                if key in self.summaries:
                    continue
                if info.is_method and not standalone:
                    continue
                if info.file in reuse:
                    continue
                self._run_unit(
                    f"function {key}",
                    info.file,
                    lambda info=info: self._summarize(info),
                    summary_key=key,
                )
            # even a degraded run reports what its summaries did find
            self._collect_summary_events()
        return self._finalize_findings()

    def _run_unit(
        self,
        unit: str,
        file: str,
        body,
        summary_key: Optional[str] = None,
    ) -> bool:
        """Run one analysis unit inside a fault boundary.

        Returns True when the unit completed.  On failure the unit's
        partial work is kept (taint joins are monotone), the fault is
        recorded as an incident, and — for function units — an empty
        summary is stored so call sites do not re-run the failing body.
        """
        if self.options.unit_step_budget is not None:
            self._unit_limit = self._steps + self.options.unit_step_budget
        if self.options.unit_deadline is not None:
            self._deadline_at = time.monotonic() + self.options.unit_deadline
        self._depth = 0
        globals_before: Optional[Dict[str, Tuple[TaintState, str]]] = None
        if self.track:
            self._unit_root = file
            self._unit_fp = self.footprints.setdefault(file, UnitFootprint())
            globals_before = {
                name: (record.taint, record.class_name or "")
                for name, record in self.globals.records.items()
            }
        try:
            body()
            return True
        except BudgetExceeded:
            self.aborted = True
            self.incidents.append(
                Incident(
                    stage=IncidentStage.ANALYSIS,
                    severity=IncidentSeverity.FATAL,
                    file=file,
                    reason="analysis step budget exhausted",
                    recovered=False,
                    unit=unit,
                )
            )
        except UnitFault as fault:
            self.incidents.append(
                Incident(
                    stage=IncidentStage.ANALYSIS,
                    severity=IncidentSeverity.ERROR,
                    file=file,
                    reason=fault.reason,
                    recovered=True,
                    unit=unit,
                )
            )
        except RecursionError:
            self.incidents.append(
                Incident(
                    stage=IncidentStage.ANALYSIS,
                    severity=IncidentSeverity.ERROR,
                    file=file,
                    reason="recursion limit exceeded",
                    recovered=True,
                    unit=unit,
                )
            )
        except Exception as error:
            # catch-all fault boundary: an engine bug on one unit must
            # not zero out the findings of every other unit
            self.incidents.append(
                Incident(
                    stage=IncidentStage.ANALYSIS,
                    severity=IncidentSeverity.ERROR,
                    file=file,
                    reason=f"internal analysis error: {error!r}",
                    recovered=True,
                    unit=unit,
                )
            )
        finally:
            self._unit_limit = None
            self._deadline_at = None
            self._depth = 0
            if self.track:
                self._diff_globals(globals_before or {}, self._unit_fp)
                self._unit_fp = None
                self._unit_root = ""
        if self.track:
            # falling through the boundary means the unit faulted: its
            # effects are partial, so this root is never skippable
            self.footprints.setdefault(file, UnitFootprint()).faulted = True
        if summary_key is not None and summary_key not in self.summaries:
            # faulted placeholder: call sites stop re-running the failing
            # body, but the empty summary must never be persisted
            self.summaries[summary_key] = FunctionSummary(
                key=summary_key, faulted=True
            )
        return False

    #: the "no record" effective value for the unit-boundary diff —
    #: creating a clean, class-free binding is not an observable write
    _CLEAN_EFFECT: "Tuple[TaintState, str]" = (TaintState.clean(), "")

    def _diff_globals(
        self,
        before: Dict[str, Tuple[TaintState, str]],
        footprint: Optional[UnitFootprint],
    ) -> None:
        """Record global names whose effective value changed this unit.

        Taint states are interned, so identity compares are exact; a
        record object replaced with an equal value (``join_from``
        rebinds unchanged names) is correctly ignored.
        """
        if footprint is None:
            return
        # under register_globals an *uninitialized* global is attacker
        # data, so even creating a clean binding is an observable write;
        # otherwise absent and clean-without-class are equivalent
        strict = bool(self.profile.register_globals)
        records = self.globals.records
        for name, record in records.items():
            prior = before.get(name)
            if prior is None:
                if strict or record.taint is not self._CLEAN_EFFECT[0] or (
                    record.class_name or ""
                ):
                    footprint.writes.add(name)
            elif prior[0] is not record.taint or prior[1] != (record.class_name or ""):
                footprint.writes.add(name)
        for name, prior in before.items():
            if name not in records and (strict or prior != self._CLEAN_EFFECT):
                footprint.writes.add(name)

    def _summarize_all_functions(self) -> None:
        """Pre-analyze plugin entry points (paper: "phpSAFE starts by
        executing an inter-procedural parsing of the functions that are
        not called from the source code of the plugin").

        Called functions are summarized lazily at their first call site
        so globals carry their call-time state."""
        for info in self.model.uncalled_functions():
            if info.is_method and not (
                self.options.oop or self.options.analyze_methods_standalone
            ):
                continue
            self._summarize(info)

    def _emit_uncalled_events(self) -> None:
        """Report source→sink flows inside never-called functions.

        Every computed summary is scanned (covering corner cases like a
        function only reachable through its own recursion); flows that
        depend on the unknown parameters of an entry point are dropped
        (no caller exists inside the plugin to bind them), and events
        already emitted at real call sites deduplicate by sink line.
        """
        for key, info in sorted(self.model.functions.items()):
            if key not in self.summaries:
                if info.is_method and not (
                    self.options.oop or self.options.analyze_methods_standalone
                ):
                    continue
                self._summarize(info)
        self._collect_summary_events()

    def _collect_summary_events(self) -> None:
        """Promote summary-local sink events to plugin-level events."""
        for key, summary in sorted(self.summaries.items()):
            owner = ""
            if self.track:
                info = self.model.functions.get(key)
                owner = info.file if info is not None else ""
            for event in summary.sink_events:
                concrete = event.taint.substituted({})  # drop ParamRefs, keep PropRefs
                if concrete.active or self._has_prop_refs(event.taint):
                    promoted = replace(event, taint=event.taint)
                    if owner and not promoted.unit:
                        promoted.unit = owner
                    self.events.append(promoted)

    @staticmethod
    def _has_prop_refs(taint: TaintState) -> bool:
        from .taint import PropRef

        return any(
            isinstance(label, PropRef)
            for labels in taint.active.values()
            for label in labels
        )

    def _finalize_one(self, event: SinkEvent) -> Optional[Finding]:
        """Resolve one event's property placeholders into a finding."""
        resolved = self.class_props.resolve(event.taint)
        resolved = resolved.substituted({})  # drop any leftover placeholders
        labels = resolved.active.get(event.kind, set())
        concrete = [label for label in labels if isinstance(label, ConcreteSource)]
        if not concrete:
            return None
        vectors = tuple(
            sorted({label.vector for label in concrete}, key=lambda v: v.value)
        )
        via_oop = (
            event.via_oop
            or any(label.via_oop for label in concrete)
            or self._has_prop_refs(event.taint)
        )
        trace = tuple(sorted(label.describe() for label in concrete))[:4] + event.trace
        return Finding(
            kind=event.kind,
            file=event.file,
            line=event.line,
            sink=event.sink,
            variable=event.variable,
            vectors=vectors,
            trace=trace[: self.options.max_trace],
            via_oop=via_oop,
            markup_context=event.markup_context,
        )

    @staticmethod
    def dedupe_findings(findings: Sequence[Finding]) -> List[Finding]:
        """Collapse findings sharing (kind, file, line) to one winner.

        The winner is the canonical *minimum* over the finding's full
        representation, not the first seen: min-merge is associative and
        order-independent, so merging an incremental run's live findings
        with a prior manifest's carried findings reproduces exactly what
        one cold pass over all events would produce.
        """
        best: Dict[Tuple[str, str, int], Tuple[tuple, Finding]] = {}
        for finding in findings:
            rank = (
                finding.sink,
                finding.variable,
                tuple(vector.value for vector in finding.vectors),
                finding.markup_context,
                finding.via_oop,
                finding.trace,
            )
            prior = best.get(finding.key)
            if prior is None or rank < prior[0]:
                best[finding.key] = (rank, finding)
        deduped = [finding for _rank, finding in best.values()]
        deduped.sort(key=lambda finding: (finding.file, finding.line, finding.kind.value))
        return deduped

    def _finalize_findings(self) -> List[Finding]:
        """Resolve property placeholders and deduplicate into findings."""
        candidates = []
        for event in self.events:
            finding = self._finalize_one(event)
            if finding is not None:
                candidates.append(finding)
        return self.dedupe_findings(candidates)

    def findings_by_unit(self) -> Dict[str, List[Finding]]:
        """Finalized findings grouped by the root file that produced
        them (``track_units`` runs only; events emitted outside any unit
        group under ``""``).  Each group is deduplicated independently —
        the cross-group min-merge happens when groups are recombined."""
        grouped: Dict[str, List[Finding]] = {}
        for event in self.events:
            finding = self._finalize_one(event)
            if finding is not None:
                grouped.setdefault(event.unit, []).append(finding)
        return {
            unit: self.dedupe_findings(items) for unit, items in grouped.items()
        }

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.options.step_budget:
            raise BudgetExceeded()
        if self._unit_limit is not None and self._steps > self._unit_limit:
            raise UnitFault("unit step budget exhausted")
        # the clock is read every 256 steps: cheap enough for the hot
        # loop, granular enough for a seconds-scale deadline
        if (
            self._deadline_at is not None
            and (self._steps & 0xFF) == 0
            and time.monotonic() > self._deadline_at
        ):
            raise UnitFault("unit wall-clock deadline exceeded")

    def _emit(self, event: SinkEvent) -> None:
        if self._summary_stack:
            self._summary_stack[-1].sink_events.append(event)
        else:
            if self.track and self._unit_root and not event.unit:
                event = replace(event, unit=self._unit_root)
            self.events.append(event)

    # ------------------------------------------------------------------
    # Function summaries
    # ------------------------------------------------------------------

    def preload_summary(self, summary: FunctionSummary) -> None:
        """Install a cache-served summary before the run starts.

        Replays the summary's parameter-free property writes into the
        class property store — the commit :meth:`_record_prop_write`
        performs while a body is being summarized — so never-called
        methods keep contributing property taint on cache hits.
        """
        self.summaries[summary.key] = summary
        for (class_lower, prop), taint in summary.prop_writes.items():
            self.class_props.write(class_lower, prop, taint.drop_param_refs())

    def _merge_summary_deps(self, summary: FunctionSummary) -> None:
        """A caller's summary inherits its callee's dependencies: the
        callee's events are baked into the caller, so whatever
        invalidates the callee invalidates the caller too.  Under unit
        tracking the current root's footprint also absorbs them, so a
        memoized summary's state effects are attributed to *every* unit
        that applies it."""
        if self._summary_stack:
            frame = self._summary_stack[-1]
            frame.dep_files.update(summary.dep_files)
            frame.dep_unresolved.update(summary.dep_unresolved)
            frame.global_reads.update(summary.global_reads)
            frame.global_writes.update(summary.global_writes)
            frame.prop_reads.update(summary.prop_reads)
            frame.static_tokens.update(summary.static_tokens)
            if summary.uses_globals or summary.faulted or summary.uses_statics:
                frame.uses_globals = frame.uses_globals or summary.uses_globals
                frame.uses_statics = frame.uses_statics or summary.uses_statics
                frame.faulted = frame.faulted or summary.faulted
        if self.track and self._unit_fp is not None:
            footprint = self._unit_fp
            footprint.dep_files.update(summary.dep_files)
            footprint.dep_unresolved.update(summary.dep_unresolved)
            footprint.reads.update(summary.global_reads)
            footprint.writes.update(summary.global_writes)
            footprint.prop_reads.update(summary.prop_reads)
            footprint.prop_writes.update(
                f"{class_lower}|{prop}" for class_lower, prop in summary.prop_writes
            )
            footprint.statics.update(summary.static_tokens)

    def _summarize(self, info: FunctionInfo) -> FunctionSummary:
        cached = self.summaries.get(info.key)
        if cached is not None and self.options.use_summaries:
            counters.summary_memo_hits += 1
            self._merge_summary_deps(cached)
            return cached
        if info.key in self._in_progress:
            # recursion: "functions that are called recursively are
            # parsed only once to avoid endless loops"
            return FunctionSummary(key=info.key)
        self._in_progress.add(info.key)
        summary = FunctionSummary(key=info.key)
        summary.dep_files.add(info.file)

        def build_scope() -> Scope:
            activation = Scope(info.key)
            for index, param in enumerate(info.params):
                taint = TaintState.from_label(
                    ParamRef(info.key, index), self._kind_universe
                )
                activation.set(
                    VariableRecord(
                        name=param.name,
                        file=info.file,
                        line=info.line,
                        taint=taint,
                        is_input=True,
                    )
                )
            if info.class_name and self.options.oop:
                activation.set(
                    VariableRecord(
                        name="this",
                        file=info.file,
                        line=info.line,
                        class_name=info.class_name,
                    )
                )
            return activation

        scope = build_scope()
        previous_file = self._current_file
        self._current_file = info.file
        self._summary_stack.append(summary)
        try:
            self._exec_block(info.body, scope)
            if summary.uses_statics:
                # Statics stored by one activation are observed by the
                # next; a second pass against the joined slots reaches
                # the cross-call fixed point (same two-pass scheme as
                # :meth:`_exec_loop`).  Pass 1's effects are discarded —
                # pass 2 re-derives them with at-least-as-tainted state.
                summary.sink_events = []
                summary.return_taint = TaintState.clean()
                summary.return_class = ""
                summary.prop_writes = {}
                scope = build_scope()
                self._exec_block(info.body, scope)
        finally:
            self._summary_stack.pop()
            self._current_file = previous_file
            self._in_progress.discard(info.key)
        for index, param in enumerate(info.params):
            if param.by_ref:
                record = scope.get(param.name)
                if record is not None and record.taint.active:
                    summary.ref_param_writes[index] = record.taint
        self.summaries[info.key] = summary
        counters.summaries_computed += 1
        if self.track and (summary.uses_globals or summary.uses_statics):
            # order-dependent summary: remember which root first computed
            # it so the planner re-runs that root whenever it matters
            self.state_summary_roots.setdefault(
                info.key, self._unit_root or info.file
            )
        self._merge_summary_deps(summary)
        return summary

    def _apply_summary(
        self,
        summary: FunctionSummary,
        args: Sequence[Value],
        arg_exprs: Sequence[ast.Expr],
        scope: Scope,
        line: int,
    ) -> Value:
        """Substitute a summary at a call site (paper: "whenever the
        function is called, this data flow is added to the
        parser_variables, which is updated based on the calling
        arguments")."""
        mapping: Dict[Label, TaintState] = {}
        for index, value in enumerate(args):
            mapping[ParamRef(summary.key, index)] = value.taint
        for event in summary.sink_events:
            self._emit(event.substituted(mapping))
        for (class_lower, prop), taint in summary.prop_writes.items():
            self._record_prop_write(class_lower, prop, taint.substituted(mapping))
        for index, taint in summary.ref_param_writes.items():
            if index < len(arg_exprs) and isinstance(arg_exprs[index], ast.Variable):
                name = arg_exprs[index].name  # type: ignore[union-attr]
                self._note_global_read(scope, name)
                record = scope.get(name) or VariableRecord(
                    name=name, file=self._current_file, line=line
                )
                scope.set(record.updated(taint=record.taint.joined(taint.substituted(mapping))))
        return Value(
            taint=summary.return_taint.substituted(mapping),
            class_name=summary.return_class,
            trace=(f"return of {summary.key}() at {self._current_file}:{line}",),
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _exec_block(self, statements: Sequence[ast.Statement], scope: Scope) -> None:
        for statement in statements:
            self._exec(statement, scope)

    def _depth_fault(self) -> UnitFault:
        return UnitFault(
            f"evaluation depth limit ({self.options.max_eval_depth}) exceeded"
        )

    def _exec(self, node: ast.Statement, scope: Scope) -> None:
        self._depth += 1
        try:
            if self.options.recover and self._depth > self.options.max_eval_depth:
                raise self._depth_fault()
            self._tick()
            handler = _STATEMENT_HANDLERS.get(node.__class__)
            if handler is not None:
                handler(self, node, scope)
        finally:
            self._depth -= 1

    def _exec_expression(self, node: ast.ExpressionStatement, scope: Scope) -> None:
        self._eval(node.expr, scope)

    def _exec_echo(self, node: ast.EchoStatement, scope: Scope) -> None:
        for expr in node.exprs:
            self._check_xss_output(expr, scope, sink="echo")

    def _exec_nested(self, node: ast.Block, scope: Scope) -> None:
        self._exec_block(node.statements, scope)

    def _exec_optional_body(
        self, node: Union[ast.NamespaceStatement, ast.DeclareStatement], scope: Scope
    ) -> None:
        if node.body is not None:
            self._exec_block(node.body, scope)

    def _exec_if(self, node: ast.IfStatement, scope: Scope) -> None:
        self._eval(node.cond, scope)
        branches = [node.then]
        for clause in node.elseifs:
            self._eval(clause.cond, scope)
            branches.append(clause.body)
        if node.otherwise is not None:
            branches.append(node.otherwise)
        self._exec_branches(branches, scope, exhaustive=node.otherwise is not None)

    def _exec_while(self, node: ast.WhileStatement, scope: Scope) -> None:
        self._eval(node.cond, scope)
        self._exec_loop(node.body, scope)

    def _exec_do_while(self, node: ast.DoWhileStatement, scope: Scope) -> None:
        self._exec_loop(node.body, scope)
        self._eval(node.cond, scope)

    def _exec_for(self, node: ast.ForStatement, scope: Scope) -> None:
        for expr in node.init:
            self._eval(expr, scope)
        for expr in node.cond:
            self._eval(expr, scope)
        self._exec_loop(
            node.body + [ast.ExpressionStatement(expr=e) for e in node.update],
            scope,
        )

    def _exec_switch(self, node: ast.SwitchStatement, scope: Scope) -> None:
        self._eval(node.subject, scope)
        has_default = any(case.test is None for case in node.cases)
        # fallthrough: entering at case i runs every later case body
        # too unless a ``break`` intervenes; ``break`` is not
        # tracked, so each branch is the suffix starting at its case
        # (an over-approximation the outcome join keeps sound)
        bodies = [case.body for case in node.cases]
        suffixes = [
            [stmt for body in bodies[i:] for stmt in body]
            for i in range(len(bodies))
        ]
        self._exec_branches(suffixes, scope, exhaustive=has_default)

    def _exec_unset(self, node: ast.UnsetStatement, scope: Scope) -> None:
        # T_UNSET: "the properties of the variable are updated as
        # untainted and marked as non-vulnerable"
        for var in node.vars:
            if isinstance(var, ast.Variable):
                scope.set(
                    VariableRecord(
                        name=var.name, file=self._current_file, line=node.line
                    )
                )

    def _exec_throw(self, node: ast.ThrowStatement, scope: Scope) -> None:
        self._eval(node.expr, scope)

    def _exec_try(self, node: ast.TryStatement, scope: Scope) -> None:
        branches = [node.body] + [catch.body for catch in node.catches]
        self._exec_branches(branches, scope)
        if node.finally_body is not None:
            self._exec_block(node.finally_body, scope)

    def _exec_branches(
        self,
        branches: List[List[ast.Statement]],
        scope: Scope,
        exhaustive: bool = False,
    ) -> None:
        """Execute each branch from the pre-state and join the outcomes
        ("the analysis takes into account all possible paths").

        ``exhaustive`` means the branches cover every path (an ``if``
        with ``else``, a ``switch`` with ``default``): the pre-state is
        then not a possible outcome and a variable cleaned on every
        branch really is clean afterwards.
        """
        # the pre-state itself can be written while the branches run (a
        # function called in a branch writes through ``global``), so the
        # snapshots may differ in those names too: collect them apart
        written_before = scope.written
        scope.written = set()
        outcomes: List[Scope] = []
        for branch in branches:
            snapshot = scope.copy()
            self._exec_block_in(branch, snapshot, scope)
            outcomes.append(snapshot)
        if not exhaustive:
            outcomes.append(scope.copy())
        joined = outcomes[0]
        joined.written |= scope.written
        joined.join_from(*outcomes[1:])
        scope.records = joined.records
        scope.ref_groups = joined.ref_groups
        scope.may_refs = joined.may_refs
        scope.static_names = joined.static_names
        scope.static_slots = joined.static_slots
        written_before |= joined.written
        scope.written = written_before

    def _exec_loop(self, body: Sequence[ast.Statement], scope: Scope) -> None:
        """Two joined passes propagate loop-carried taint."""
        written_before = scope.written
        scope.written = set()  # pre-state writes while the body runs
        snapshot = scope.copy()
        for _pass in range(2):
            self._exec_block_in(body, snapshot, scope)
        scope.join_from(snapshot)
        written_before |= scope.written
        scope.written = written_before

    def _exec_block_in(
        self, body: Sequence[ast.Statement], snapshot: Scope, scope: Scope
    ) -> None:
        """Run ``body`` on ``snapshot``, a path copy of ``scope``.  A copy
        of the global scope stands in for it while the path runs, so a
        function called on the path writes its ``global`` names into
        the path's state (which the join then sees) and a top-level read
        there is still a global read (``register_globals``)."""
        if scope is not self.globals:
            self._exec_block(body, snapshot)
            return
        self.globals = snapshot
        try:
            self._exec_block(body, snapshot)
        finally:
            self.globals = scope

    def _exec_foreach(self, node: ast.ForeachStatement, scope: Scope) -> None:
        subject = self._eval(node.subject, scope)
        for target in (node.key_var, node.value_var):
            if isinstance(target, ast.Variable):
                scope.set(
                    VariableRecord(
                        name=target.name,
                        file=self._current_file,
                        line=node.line,
                        taint=subject.taint.copy(),
                        class_name=None,
                        trace=subject.trace,
                    )
                )
            elif target is not None:
                self._assign_to(target, subject, scope, node.line)
        # element values of a tainted container stay tainted but their
        # class is unknown; remember the container taint for ->prop reads
        self._exec_loop(node.body, scope)

    def _exec_return(self, node: ast.ReturnStatement, scope: Scope) -> None:
        if not self._summary_stack:
            if node.expr is not None:
                self._eval(node.expr, scope)
            return
        summary = self._summary_stack[-1]
        if node.expr is None:
            return
        value = self._eval(node.expr, scope)
        summary.return_taint = summary.return_taint.joined(value.taint)
        summary.return_class = summary.return_class or value.class_name

    def _exec_static_vars(self, node: ast.StaticVarStatement, scope: Scope) -> None:
        """``static $s`` keeps its value across calls: one taint slot per
        (function, variable) lives in the engine, every activation joins
        the stored taint into its binding, and writes join back through
        :meth:`_assign_to` — so taint stored by one call is observed by
        the next (reached via the two-pass scheme in :meth:`_summarize`)."""
        if self._summary_stack:
            frame = self._summary_stack[-1]
            frame.uses_statics = True
            owner = frame.key
            frame.static_tokens.add(f"static:{owner}")
        else:
            owner = f"<main>:{self._current_file}"
        if self.track and self._unit_fp is not None:
            self._unit_fp.statics.add(f"static:{owner}")
        slots = self._static_store.setdefault(owner, {})
        for name, default in node.vars:
            value = self._eval(default, scope) if default is not None else Value.clean()
            taint = value.taint
            prior = slots.get(name)
            if prior is not None:
                taint = taint.joined(prior)
            slots[name] = taint
            scope.set(
                VariableRecord(
                    name=name, file=self._current_file, line=node.line, taint=taint
                )
            )
            scope.static_names.add(name)
            scope.static_slots = slots

    def _exec_global(self, node: ast.GlobalStatement, scope: Scope) -> None:
        """Bind names to the global scope; known CMS instances (e.g.
        ``global $wpdb``) get their class from the profile."""
        frame = self._summary_stack[-1] if self._summary_stack else None
        if frame is not None:
            # the summary observes run-order-dependent global state, so
            # it cannot be reused across runs
            frame.uses_globals = True
        for name in node.names:
            if frame is not None:
                frame.global_reads.add(name)
            if self.track and self._unit_fp is not None:
                self._unit_fp.reads.add(name)
            record = self.globals.get(name)
            if record is None:
                class_name = None
                if self.options.oop:
                    instance = self.profile.known_instance(name)
                    if instance is not None:
                        class_name = instance.class_name
                record = VariableRecord(
                    name=name,
                    file=self._current_file,
                    line=node.line,
                    class_name=class_name,
                )
                self.globals.set(record)
                if class_name and frame is not None:
                    # materializing a known CMS instance binding is a
                    # class-bearing write other units can observe
                    frame.global_writes.add(name)
            scope.set(record)
            scope.global_aliases.add(name)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _eval(self, node: Optional[ast.Expr], scope: Scope) -> Value:
        self._depth += 1
        try:
            if self.options.recover and self._depth > self.options.max_eval_depth:
                raise self._depth_fault()
            self._tick()
            handler = _EXPR_HANDLERS.get(node.__class__)
            if handler is None:
                return Value()  # absent operand or a _CLEAN_EXPRESSIONS node
            return handler(self, node, scope)
        finally:
            self._depth -= 1

    def _eval_variable_variable(self, node: ast.VariableVariable, scope: Scope) -> Value:
        self._eval(node.expr, scope)
        return Value()

    def _eval_parts(self, parts: Sequence[ast.Expr], scope: Scope) -> Value:
        value = Value()
        for part in parts:
            value = value.joined(self._eval(part, scope))
        return value

    def _eval_interpolated(self, node: ast.InterpolatedString, scope: Scope) -> Value:
        value = self._eval_parts(node.parts, scope)
        value.class_name = ""
        return value

    def _eval_shell_exec(self, node: ast.ShellExec, scope: Scope) -> Value:
        value = self._eval_parts(node.parts, scope)
        if (
            VulnKind.CMDI in self.options.construct_kinds
            and value.taint.active.get(VulnKind.CMDI)
        ):
            self._emit(
                SinkEvent(
                    kind=VulnKind.CMDI,
                    sink="`...`",
                    file=self._current_file,
                    line=node.line,
                    variable=value.name_hint,
                    taint=value.taint,
                    trace=value.trace,
                )
            )
        return value

    def _eval_array_literal(self, node: ast.ArrayLiteral, scope: Scope) -> Value:
        value = Value()
        for item in node.items:
            if item.key is not None:
                value = value.joined(self._eval(item.key, scope))
            value = value.joined(self._eval(item.value, scope))
        value.class_name = ""
        return value

    def _eval_static_property(self, node: ast.StaticPropertyAccess, scope: Scope) -> Value:
        if self.options.oop:
            self._note_prop_read(node.class_name, node.name)
            return Value(taint=self.class_props.read(node.class_name, node.name))
        return Value()

    def _eval_unary(self, node: ast.Unary, scope: Scope) -> Value:
        inner = self._eval(node.operand, scope)
        if node.op in ("!", "-", "+", "~"):
            return Value()
        return inner  # @-suppression and throw pass the value through

    def _eval_ternary(self, node: ast.Ternary, scope: Scope) -> Value:
        self._eval(node.cond, scope)
        left = (
            self._eval(node.if_true, scope)
            if node.if_true is not None
            else self._eval(node.cond, scope)
        )
        right = self._eval(node.if_false, scope)
        return left.joined(right)

    def _eval_cast(self, node: ast.Cast, scope: Scope) -> Value:
        inner = self._eval(node.operand, scope)
        if node.to in ("int", "float", "bool", "unset"):
            return Value()
        return inner

    def _eval_incdec(self, node: ast.IncDec, scope: Scope) -> Value:
        self._eval(node.target, scope)
        return Value()

    def _eval_list(self, node: ast.ListExpr, scope: Scope) -> Value:
        value = Value()
        for target in node.targets:
            if target is not None:
                value = value.joined(self._eval(target, scope))
        return value

    def _eval_clone(self, node: ast.Clone, scope: Scope) -> Value:
        return self._eval(node.expr, scope)

    def _eval_exit(self, node: ast.ExitExpr, scope: Scope) -> Value:
        if node.expr is not None:
            self._check_xss_output(node.expr, scope, sink="exit")
        return Value()

    def _eval_print(self, node: ast.PrintExpr, scope: Scope) -> Value:
        self._check_xss_output(node.expr, scope, sink="print")
        return Value()

    # -- variables, arrays, properties ------------------------------------

    def _eval_variable(self, node: ast.Variable, scope: Scope) -> Value:
        name = node.name
        source = self.profile.superglobal_source(name)
        if source is not None:
            label = ConcreteSource(
                vector=source.vector,
                name=f"${name}",
                file=self._current_file,
                line=node.line,
            )
            return Value(
                taint=TaintState.from_label(label, source.kinds),
                trace=(f"${name} read at {self._current_file}:{node.line}",),
                name_hint=f"${name}",
            )
        if self.track and self._unit_fp is not None and scope.is_global_image:
            # a top-level read observes whatever earlier units left in
            # the global scope — record it even when nothing is bound
            # yet (an earlier unit *writing* it is still a coupling)
            self._unit_fp.reads.add(name)
        record = scope.get(name)
        if record is None and scope is not self.globals:
            pass  # locals do not fall back to globals without `global`
        if record is None and scope is self.globals:
            record = self.globals.get(name)
        if record is None:
            if self.options.oop:
                instance = self.profile.known_instance(name)
                if instance is not None:
                    return Value(class_name=instance.class_name, name_hint=f"${name}")
            if self.profile.register_globals and scope is self.globals:
                # Pixy-era model: uninitialized globals are attacker-set
                label = ConcreteSource(
                    vector=InputVector.GET,
                    name=f"register_globals:${name}",
                    file=self._current_file,
                    line=node.line,
                )
                return Value(
                    taint=TaintState.from_label(label, self._kind_universe),
                    trace=(f"uninitialized ${name} at {self._current_file}:{node.line}",),
                    name_hint=f"${name}",
                )
            return Value(name_hint=f"${name}")
        class_name = record.class_name or ""
        if not class_name and self.options.oop:
            # conventional names keep their known CMS type even when the
            # assignment was opaque (e.g. $db = JFactory::getDBO())
            instance = self.profile.known_instance(name)
            if instance is not None:
                class_name = instance.class_name
        return Value(
            taint=record.taint.copy(),
            class_name=class_name,
            trace=record.trace,
            name_hint=f"${name}",
        )

    def _eval_array_access(self, node: ast.ArrayAccess, scope: Scope) -> Value:
        container = self._eval(node.array, scope)
        if node.index is not None:
            # evaluate for side effects; an index rarely carries the
            # payload into the element value
            self._eval(node.index, scope)
        hint = container.name_hint + "[...]" if container.name_hint else ""
        return Value(
            taint=container.taint,
            trace=container.trace,
            name_hint=hint,
        )

    def _eval_property_access(self, node: ast.PropertyAccess, scope: Scope) -> Value:
        obj = self._eval(node.object, scope)
        prop = node.name if isinstance(node.name, str) else ""
        if not isinstance(node.name, str) and node.name is not None:
            self._eval(node.name, scope)
        hint = f"{obj.name_hint}->{prop}" if obj.name_hint else f"->{prop}"
        if self.options.oop and obj.class_name and prop:
            self._note_prop_read(obj.class_name, prop)
            return Value(
                taint=self.class_props.read(obj.class_name, prop),
                trace=obj.trace,
                name_hint=hint,
            )
        # property of an untyped value (e.g. a DB result row object):
        # propagate the container's taint
        return Value(taint=obj.taint, trace=obj.trace, name_hint=hint)

    # -- assignment -----------------------------------------------------------

    def _eval_assignment(self, node: ast.Assignment, scope: Scope) -> Value:
        value = self._eval(node.value, scope)
        if node.op == "=":
            if (
                node.by_ref
                and isinstance(node.target, ast.Variable)
                and isinstance(node.value, ast.Variable)
            ):
                self._link_reference(node.target.name, node.value.name, scope)
            result = value
        elif node.op == ".=":
            current = self._eval(node.target, scope)
            result = current.joined(value)
        elif node.op == "??=":
            # assigns only when the target is null, so afterwards the
            # value may come from either side: join them
            current = self._eval(node.target, scope)
            result = current.joined(value)
        else:  # arithmetic/bitwise compound: numeric result
            self._eval(node.target, scope)
            result = Value.clean()
        self._assign_to(node.target, result, scope, node.line)
        return result

    def _link_reference(self, target: str, source: str, scope: Scope) -> None:
        """``$b =& $a``: ``$b`` leaves the slot it denoted and denotes
        ``$a``'s from now on, with ``$a``'s must- and may-aliases.

        :meth:`_assign_to` mirrors each write across the group.  (By-ref
        *parameters* are handled separately through ``ref_param_writes``.)"""
        if target == source:
            return
        groups = scope.ref_groups
        may_refs = scope.may_refs
        old = groups.pop(target, None)
        if old is not None:
            rest = old - {target}
            for name in rest:
                if len(rest) > 1:
                    groups[name] = rest
                else:
                    del groups[name]
        for name in may_refs.pop(target, ()):
            left = may_refs[name] - {target}
            if left:
                may_refs[name] = left
            else:
                del may_refs[name]
        shared = groups.get(source, frozenset((source,))) | {target}
        for name in shared:
            groups[name] = shared
        reach = may_refs.get(source)
        if reach:
            may_refs[target] = reach
            for name in reach:
                may_refs[name] = may_refs[name] | {target}

    def _assign_to(
        self, target: Optional[ast.Expr], value: Value, scope: Scope, line: int
    ) -> None:
        if isinstance(target, ast.Variable):
            trace = value.trace + (
                f"${target.name} assigned at {self._current_file}:{line}",
            )
            was_global_alias = (
                scope is not self.globals
                and target.name in scope.global_aliases
                and scope.get(target.name) is not None
            )
            scope.set(
                VariableRecord(
                    name=target.name,
                    file=self._current_file,
                    line=line,
                    taint=value.taint.copy(),
                    class_name=value.class_name or None,
                    trace=trace[-self.options.max_trace:],
                )
            )
            if was_global_alias:
                # `global $x` alias: write through to the global scope
                self.globals.set(scope.records[target.name])
            if target.name in scope.static_names and scope.static_slots is not None:
                # `static $x`: join the write into the cross-call slot
                prior = scope.static_slots.get(target.name)
                scope.static_slots[target.name] = (
                    value.taint.copy() if prior is None else prior.joined(value.taint)
                )
            group = scope.ref_groups.get(target.name)
            if group is not None:
                # `$b =& $a` aliases: mirror the write to every member
                written = scope.records[target.name]
                for alias in group:
                    if alias != target.name:
                        scope.set(written.updated(name=alias))
            reach = scope.may_refs.get(target.name)
            if reach is not None:
                # aliases on some paths only: a weak write — the member
                # keeps its own value on the paths without the alias
                written = scope.records[target.name]
                for alias in reach:
                    old = scope.records.get(alias)
                    if old is None:
                        scope.set(written.updated(name=alias))
                        continue
                    taint = old.taint.joined(written.taint)
                    if taint is old.taint:
                        continue  # interned: the write adds no taint
                    class_name = join_class_names(
                        (old.class_name or "", written.class_name or "")
                    )
                    scope.set(
                        written.updated(
                            name=alias, taint=taint, class_name=class_name or None
                        )
                    )
        elif isinstance(target, ast.ArrayAccess):
            base = target.array
            while isinstance(base, ast.ArrayAccess):
                base = base.array
            if isinstance(base, ast.Variable):
                self._note_global_read(scope, base.name)
                record = scope.get(base.name) or VariableRecord(
                    name=base.name, file=self._current_file, line=line
                )
                scope.set(record.updated(taint=record.taint.joined(value.taint)))
            elif isinstance(base, ast.PropertyAccess):
                self._assign_to(base, value, scope, line)
        elif isinstance(target, ast.PropertyAccess):
            obj = self._eval(target.object, scope)
            prop = target.name if isinstance(target.name, str) else ""
            if self.options.oop and obj.class_name and prop:
                self._record_prop_write(obj.class_name, prop, value.taint)
            elif isinstance(target.object, ast.Variable):
                # untyped object: taint the container variable itself
                self._note_global_read(scope, target.object.name)
                record = scope.get(target.object.name) or VariableRecord(
                    name=target.object.name, file=self._current_file, line=line
                )
                scope.set(record.updated(taint=record.taint.joined(value.taint)))
        elif isinstance(target, ast.StaticPropertyAccess):
            if self.options.oop:
                self._record_prop_write(target.class_name, target.name, value.taint)
        elif isinstance(target, ast.ListExpr):
            for sub_target in target.targets:
                if sub_target is not None:
                    self._assign_to(sub_target, value, scope, line)

    def _declaring_class(self, class_name: str, prop: str) -> str:
        """Walk up the hierarchy to the ancestor declaring ``prop``.

        Properties are stored under their declaring class so sibling
        subclasses writing/reading an inherited property share one slot
        (matching PHP's storage semantics, object-insensitively).
        """
        declaring = class_name
        current: Optional[str] = class_name
        seen: Set[str] = set()
        while current and current.lower() not in seen:
            seen.add(current.lower())
            info = self._lookup_class_dep(current)
            if info is None:
                break
            if prop in info.property_names:
                declaring = info.name
            current = info.parent
        return declaring

    # -- model lookups with summary-dependency recording -------------------

    def _dep_sinks(self) -> List[Tuple[Set[str], Set[str]]]:
        """(dep_files, dep_unresolved) targets for the current context:
        the enclosing summary frame and — under unit tracking — the
        current root's footprint."""
        sinks: List[Tuple[Set[str], Set[str]]] = []
        if self._summary_stack:
            frame = self._summary_stack[-1]
            sinks.append((frame.dep_files, frame.dep_unresolved))
        if self.track and self._unit_fp is not None:
            sinks.append((self._unit_fp.dep_files, self._unit_fp.dep_unresolved))
        return sinks

    def _lookup_function_dep(self, name: str):
        info = self.model.lookup_function(name)
        for dep_files, dep_unresolved in self._dep_sinks():
            if info is not None:
                dep_files.add(info.file)
            else:
                dep_unresolved.add("fn:" + name.lower())
        return info

    def _lookup_class_dep(self, name: str):
        info = self.model.lookup_class(name)
        for dep_files, dep_unresolved in self._dep_sinks():
            if info is not None:
                dep_files.add(info.file)
            else:
                dep_unresolved.add("class:" + name.lower())
        return info

    def _resolve_method_dep(self, class_name: str, method: str):
        """Like :meth:`PluginModel.resolve_method`, recording every file
        of the consulted inheritance chain as a summary dependency —
        editing any class on the chain (adding an override, changing a
        parent) must invalidate summaries that dispatched through it."""
        info = self.model.resolve_method(class_name, method)
        sinks = self._dep_sinks()
        if sinks:
            seen: Set[str] = set()
            current: Optional[str] = class_name
            while current and current.lower() not in seen:
                seen.add(current.lower())
                class_info = self.model.lookup_class(current)
                if class_info is None:
                    for _dep_files, dep_unresolved in sinks:
                        dep_unresolved.add("class:" + current.lower())
                    break
                for dep_files, _dep_unresolved in sinks:
                    dep_files.add(class_info.file)
                for trait in class_info.decl.uses:
                    trait_info = self.model.lookup_class(trait)
                    for dep_files, dep_unresolved in sinks:
                        if trait_info is not None:
                            dep_files.add(trait_info.file)
                        else:
                            dep_unresolved.add("class:" + trait.lower())
                current = class_info.parent
            if info is not None:
                for dep_files, _dep_unresolved in sinks:
                    dep_files.add(info.file)
        return info

    def _record_prop_write(self, class_name: str, prop: str, taint: TaintState) -> None:
        """Commit a property write.

        Inside a function summary the parameter-dependent part is kept in
        the summary (substituted per call site); the parameter-free part
        is committed to the shared class property store immediately so
        writes by never-called methods are still visible (Section III.E).
        """
        class_name = self._declaring_class(class_name, prop)
        if self.track and self._unit_fp is not None:
            self._unit_fp.prop_writes.add(f"{class_name.lower()}|{prop}")
        if self._summary_stack:
            summary = self._summary_stack[-1]
            key = ClassPropertyStore.key(class_name, prop)
            existing = summary.prop_writes.get(key)
            summary.prop_writes[key] = (
                taint.copy() if existing is None else existing.joined(taint)
            )
            self.class_props.write(class_name, prop, taint.drop_param_refs())
        else:
            self.class_props.write(class_name, prop, taint)

    def _note_global_read(self, scope: Scope, name: str) -> None:
        """Record a read-modify-write touch of a (possibly) global name
        that bypasses :meth:`_eval_variable`."""
        if self.track and self._unit_fp is not None and scope.is_global_image:
            self._unit_fp.reads.add(name)

    def _note_prop_read(self, class_name: str, prop: str) -> None:
        """Record a property read for incremental state coupling.

        Reads resolve through the ancestor chain (both at
        :meth:`ClassPropertyStore.read` placeholder resolution and at
        finalize), so the read set includes every ancestor's key — a
        write to an inherited slot anywhere on the chain couples."""
        keys: Set[str] = set()
        current = class_name.lower()
        seen: Set[str] = set()
        while current and current not in seen:
            seen.add(current)
            keys.add(f"{current}|{prop}")
            current = self.class_props.parents.get(current, "")
        if self._summary_stack:
            self._summary_stack[-1].prop_reads.update(keys)
        if self.track and self._unit_fp is not None:
            self._unit_fp.prop_reads.update(keys)

    # -- binary ------------------------------------------------------------------

    def _eval_binary(self, node: ast.Binary, scope: Scope) -> Value:
        left = self._eval(node.left, scope)
        right = self._eval(node.right, scope)
        if node.op == ".":
            joined = left.joined(right)
            joined.class_name = ""
            return joined
        if node.op == "??":
            # either operand may be the result, so the value carries the
            # union of both operands' taint
            return left.joined(right)
        if node.op in ("&&", "||", "and", "or", "xor"):
            return Value.clean()
        # arithmetic/comparison produce numeric/boolean values
        return Value.clean()

    # -- calls ----------------------------------------------------------------------

    def _eval_args(self, args: Sequence[ast.Expr], scope: Scope) -> List[Value]:
        return [self._eval(arg, scope) for arg in args]

    def _eval_function_call(self, node: ast.FunctionCall, scope: Scope) -> Value:
        if not isinstance(node.name, str):
            self._eval(node.name, scope)
            self._eval_args(node.args, scope)
            return Value.clean()
        name = node.name
        lowered = name.lower()
        values = self._eval_args(node.args, scope)

        sinks = self.profile.function_sinks(lowered)
        if sinks and lowered not in ("echo", "print", "exit"):
            for sink in sinks:
                self._check_sink(sink.kind, name, node, values, sink_spec=sink)

        filter_spec = self.profile.function_filter(lowered)
        if filter_spec is not None:
            joined = Value.clean()
            for value in values:
                joined = joined.joined(value)
            return Value(
                taint=joined.taint.filtered(filter_spec.kinds),
                trace=joined.trace + (f"filtered by {name}()",),
            )

        revert = self.profile.revert(lowered)
        if revert is not None:
            joined = Value.clean()
            for value in values:
                joined = joined.joined(value)
            return Value(
                taint=joined.taint.reverted(revert.kinds),
                trace=joined.trace + (f"reverted by {name}()",),
            )

        source = self.profile.function_source(lowered)
        if source is not None:
            label = ConcreteSource(
                vector=source.vector,
                name=f"{name}()",
                file=self._current_file,
                line=node.line,
            )
            return Value(
                taint=TaintState.from_label(label, source.kinds),
                trace=(f"{name}() read at {self._current_file}:{node.line}",),
            )

        info = self._lookup_function_dep(lowered)
        if info is not None and not info.is_method:
            summary = self._summarize(info)
            return self._apply_summary(summary, values, node.args, scope, node.line)

        propagation = self.profile.function_propagation(lowered)
        if propagation is not None:
            return self._apply_propagation(propagation, name, values)

        if lowered in PASSTHROUGH_FUNCTIONS:
            joined = Value.clean()
            for value in values:
                joined = joined.joined(value)
            joined.class_name = ""
            return joined
        if lowered in CLEAN_FUNCTIONS:
            return Value.clean()
        if self.options.unknown_call_policy == "propagate":
            joined = Value.clean()
            for value in values:
                joined = joined.joined(value)
            joined.class_name = ""
            return joined
        return Value.clean()

    def _eval_method_call(self, node: ast.MethodCall, scope: Scope) -> Value:
        obj = self._eval(node.object, scope)
        if not isinstance(node.method, str):
            self._eval_args(node.args, scope)
            return Value.clean()
        if not self.options.oop:
            self._eval_args(node.args, scope)
            return Value.clean()
        method = node.method
        class_name = obj.class_name
        values = self._eval_args(node.args, scope)
        if not class_name:
            return Value(taint=TaintState.clean())
        return self._dispatch_method(class_name, method, node, values, obj, scope)

    def _eval_static_call(self, node: ast.StaticCall, scope: Scope) -> Value:
        values = self._eval_args(node.args, scope)
        if not self.options.oop or not isinstance(node.method, str):
            return Value.clean()
        class_name = node.class_name
        if class_name.startswith("$"):
            record = scope.get(class_name[1:])
            class_name = (record.class_name or "") if record else ""
        if class_name.lower() in ("self", "static", "parent"):
            this = scope.get("this")
            current = this.class_name if this and this.class_name else ""
            if class_name.lower() == "parent" and current:
                class_info = self._lookup_class_dep(current)
                class_name = (class_info.parent or "") if class_info else ""
            else:
                class_name = current
        if not class_name:
            return Value.clean()
        return self._dispatch_method(
            class_name, node.method, node, values, Value(class_name=class_name), scope
        )

    def _dispatch_method(
        self,
        class_name: str,
        method: str,
        node: Union[ast.MethodCall, ast.StaticCall],
        values: List[Value],
        obj: Value,
        scope: Scope,
    ) -> Value:
        """Shared resolution for ``->`` and ``::`` calls."""
        qualified = f"{obj.name_hint or class_name}->{method}"

        for sink in self.profile.method_sinks(class_name, method):
            self._check_sink(
                sink.kind, qualified, node, values, sink_spec=sink, via_oop=True
            )

        filter_spec = self.profile.method_filter(class_name, method)
        if filter_spec is not None:
            joined = Value.clean()
            for value in values:
                joined = joined.joined(value)
            return Value(
                taint=joined.taint.filtered(filter_spec.kinds),
                trace=joined.trace + (f"filtered by {qualified}()",),
            )

        source = self.profile.method_source(class_name, method)
        if source is not None:
            label = ConcreteSource(
                vector=source.vector,
                name=f"${class_name.lower()}->{method}()"
                if not obj.name_hint
                else f"{obj.name_hint}->{method}()",
                file=self._current_file,
                line=node.line,
                via_oop=True,
            )
            return Value(
                taint=TaintState.from_label(label, source.kinds),
                trace=(f"{qualified}() read at {self._current_file}:{node.line}",),
            )

        info = self._resolve_method_dep(class_name, method)
        if info is not None:
            summary = self._summarize(info)
            return self._apply_summary(summary, values, node.args, scope, node.line)

        propagation = self.profile.method_propagation(class_name, method)
        if propagation is not None:
            return self._apply_propagation(propagation, qualified, values)
        return Value.clean()

    def _apply_propagation(
        self, spec: "PropagationSpec", name: str, values: List[Value]
    ) -> Value:
        """ArgToReturn propagation: the return value carries the taint of
        the spec's argument positions, restricted to the spec's kinds."""
        joined = Value.clean()
        for index, value in enumerate(values):
            if spec.arg_is_propagated(index):
                joined = joined.joined(value)
        taint = joined.taint.restricted(spec.kinds)
        if taint.is_clean() and not taint.suppressed:
            return Value.clean()
        return Value(taint=taint, trace=joined.trace + (f"through {name}()",))

    def _eval_new(self, node: ast.New, scope: Scope) -> Value:
        values = self._eval_args(node.args, scope)
        if not isinstance(node.class_name, str):
            return Value.clean()
        class_name = node.class_name
        if self.options.oop:
            constructor = self._resolve_method_dep(class_name, "__construct")
            if constructor is None:
                # PHP4-style constructor: method named like the class
                constructor = self._resolve_method_dep(class_name, class_name)
            if constructor is not None:
                summary = self._summarize(constructor)
                self._apply_summary(summary, values, node.args, scope, node.line)
        return Value(class_name=class_name)

    def _eval_include(self, node: ast.IncludeExpr, scope: Scope) -> Value:
        """Inline the included file's top level (paper: "as the PHP file
        can include other PHP files recursively, all of them must be
        analyzed in order to obtain the complete AST").

        A tainted include path is also a file-inclusion sink (extension
        kind ``VulnKind.LFI``)."""
        path_value = self._eval(node.path, scope)
        if (
            VulnKind.LFI in self.options.construct_kinds
            and path_value.taint.active.get(VulnKind.LFI)
        ):
            self._emit(
                SinkEvent(
                    kind=VulnKind.LFI,
                    sink=node.kind,
                    file=self._current_file,
                    line=node.line,
                    variable=path_value.name_hint,
                    taint=path_value.taint,
                    trace=path_value.trace,
                )
            )
        if self._summary_stack:
            return Value.clean()  # includes inside functions: skipped
        from .model import _static_path

        raw = _static_path(node.path)
        if not raw:
            return Value.clean()
        resolved = self.model.resolve_include(raw, self._include_stack[-1])
        if (
            resolved is None
            or resolved in self._include_stack
            or len(self._include_stack) > self.options.max_include_depth
        ):
            return Value.clean()
        file_model = self.model.files.get(resolved)
        if file_model is None:
            return Value.clean()
        if self.track and self._unit_fp is not None:
            # the inlined file's content is part of this root's result
            self._unit_fp.dep_files.add(resolved)
        previous_file = self._current_file
        self._include_stack.append(resolved)
        self._current_file = resolved
        try:
            self._exec_block(file_model.tree.statements, scope)
        finally:
            self._include_stack.pop()
            self._current_file = previous_file
        return Value.clean()

    # -- sinks ------------------------------------------------------------------------

    def _check_xss_output(
        self, expr: Optional[ast.Expr], scope: Scope, sink: str
    ) -> None:
        """echo/print/<?=: evaluate and flag XSS-tainted output.

        The markup context at the injection point (element text,
        attribute, script block, URL ...) is derived from the literal
        markup emitted before the first dynamic part — RIPS's
        context-sensitive string analysis (paper Section II)."""
        value = self._eval(expr, scope)
        if value.taint.active.get(VulnKind.XSS):
            prefix = _literal_prefix(expr)
            context = context_at_end(prefix)
            self._emit(
                SinkEvent(
                    kind=VulnKind.XSS,
                    sink=sink,
                    file=self._current_file,
                    line=expr.line if expr is not None else 0,
                    variable=value.name_hint or _describe_expr(expr),
                    taint=value.taint,
                    trace=value.trace,
                    markup_context=context.value,
                )
            )

    def _check_sink(
        self,
        kind: VulnKind,
        sink_name: str,
        node: ast.Expr,
        values: Sequence[Value],
        sink_spec,
        via_oop: bool = False,
    ) -> None:
        for index, value in enumerate(values):
            if not sink_spec.arg_is_sensitive(index):
                continue
            if value.taint.active.get(kind):
                self._emit(
                    SinkEvent(
                        kind=kind,
                        sink=sink_name,
                        file=self._current_file,
                        line=node.line,
                        variable=value.name_hint,
                        taint=value.taint,
                        trace=value.trace,
                        via_oop=via_oop,
                    )
                )


#: statement handlers by exact node class; every concrete statement class
#: subclasses ``ast.Statement`` directly, so an exact-type lookup is what
#: an ``isinstance`` test per class would decide
_STATEMENT_HANDLERS = {
    ast.ExpressionStatement: TaintEngine._exec_expression,
    ast.EchoStatement: TaintEngine._exec_echo,
    ast.Block: TaintEngine._exec_nested,
    ast.IfStatement: TaintEngine._exec_if,
    ast.WhileStatement: TaintEngine._exec_while,
    ast.DoWhileStatement: TaintEngine._exec_do_while,
    ast.ForStatement: TaintEngine._exec_for,
    ast.ForeachStatement: TaintEngine._exec_foreach,
    ast.SwitchStatement: TaintEngine._exec_switch,
    ast.ReturnStatement: TaintEngine._exec_return,
    ast.GlobalStatement: TaintEngine._exec_global,
    ast.StaticVarStatement: TaintEngine._exec_static_vars,
    ast.UnsetStatement: TaintEngine._exec_unset,
    ast.ThrowStatement: TaintEngine._exec_throw,
    ast.TryStatement: TaintEngine._exec_try,
    ast.NamespaceStatement: TaintEngine._exec_optional_body,
    ast.DeclareStatement: TaintEngine._exec_optional_body,
}

#: statements the engine steps over: markup, parser-recovery holes
#: (``ErrorStmt``), declarations the model stage already collected, and
#: control transfers the syntax-directed walk does not track
_NOOP_STATEMENTS = frozenset(
    {
        ast.InlineHTML,
        ast.ErrorStmt,
        ast.FunctionDecl,
        ast.ClassDecl,
        ast.BreakStatement,
        ast.ContinueStatement,
        ast.UseStatement,
        ast.ConstStatement,
        ast.GotoStatement,
        ast.LabelStatement,
    }
)

#: expression handlers by exact node class (see ``_STATEMENT_HANDLERS``)
_EXPR_HANDLERS = {
    ast.Variable: TaintEngine._eval_variable,
    ast.VariableVariable: TaintEngine._eval_variable_variable,
    ast.InterpolatedString: TaintEngine._eval_interpolated,
    ast.ShellExec: TaintEngine._eval_shell_exec,
    ast.ArrayLiteral: TaintEngine._eval_array_literal,
    ast.ArrayAccess: TaintEngine._eval_array_access,
    ast.PropertyAccess: TaintEngine._eval_property_access,
    ast.StaticPropertyAccess: TaintEngine._eval_static_property,
    ast.Assignment: TaintEngine._eval_assignment,
    ast.Binary: TaintEngine._eval_binary,
    ast.Unary: TaintEngine._eval_unary,
    ast.Ternary: TaintEngine._eval_ternary,
    ast.Cast: TaintEngine._eval_cast,
    ast.IncDec: TaintEngine._eval_incdec,
    ast.ListExpr: TaintEngine._eval_list,
    ast.FunctionCall: TaintEngine._eval_function_call,
    ast.MethodCall: TaintEngine._eval_method_call,
    ast.StaticCall: TaintEngine._eval_static_call,
    ast.New: TaintEngine._eval_new,
    ast.Clone: TaintEngine._eval_clone,
    ast.IncludeExpr: TaintEngine._eval_include,
    ast.ExitExpr: TaintEngine._eval_exit,
    ast.PrintExpr: TaintEngine._eval_print,
}

#: expressions whose value is clean without evaluating any operand:
#: scalars, constants, type tests and closure values (bodies not entered)
_CLEAN_EXPRESSIONS = frozenset(
    {
        ast.Literal,
        ast.ClassConstAccess,
        ast.ConstFetch,
        ast.IssetExpr,
        ast.EmptyExpr,
        ast.InstanceofExpr,
        ast.Closure,
    }
)


def _literal_prefix(expr: Optional[ast.Expr]) -> str:
    """Concatenated literal markup before the first dynamic part."""
    parts: List[str] = []

    def collect(node: Optional[ast.Expr]) -> bool:
        """Append literals in output order; False at first dynamic part."""
        if node is None:
            return False
        if isinstance(node, ast.Literal):
            parts.append(str(node.value) if node.value is not None else "")
            return True
        if isinstance(node, ast.Binary) and node.op == ".":
            return collect(node.left) and collect(node.right)
        if isinstance(node, ast.InterpolatedString):
            for part in node.parts:
                if not collect(part):
                    return False
            return True
        return False

    collect(expr)
    return "".join(parts)


def _describe_expr(expr: Optional[ast.Expr]) -> str:
    if expr is None:
        return ""
    try:
        text = print_expr(expr)
    except TypeError:
        return type(expr).__name__
    return text if len(text) <= 60 else text[:57] + "..."
