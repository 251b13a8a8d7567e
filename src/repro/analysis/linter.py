"""The comlint engine: AST checks, suppressions, file walking.

Zero dependencies beyond the standard library.  One parse per file feeds
every rule; suppression comments are read straight from the source lines
(``# comlint: disable=DET001`` on the offending line, or
``# comlint: disable-file=DET001`` anywhere for a whole-file waiver).

The checks are deliberately *heuristic* — this is a project linter, not a
type checker.  Each heuristic is documented on its method; false positives
are expected to be rare and are silenced with an inline suppression that
doubles as reviewer-visible documentation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.rules import RULES, Rule

__all__ = ["Violation", "lint_source", "lint_file", "lint_paths", "iter_python_files"]

#: random-module functions that draw from (or reseed) the global stream.
_RANDOM_MODULE_FUNCTIONS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "seed",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "triangular",
        "paretovariate",
        "vonmisesvariate",
        "weibullvariate",
        "getrandbits",
        "binomialvariate",
    }
)

#: (module, attribute) pairs that read the wall clock.
_WALL_CLOCK_CALLS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

#: Probe emission methods whose call sites must be enabled-guarded.
_PROBE_METHODS = frozenset({"span", "instant", "count", "observe", "gauge"})

#: Builtin constructors of mutable containers.
_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})

#: The module whose import marks a file as event-sink-aware (OBS002).
_EVENT_SINK_MODULE = "repro.obs.events"

#: Event-sink names whose import from ``repro.obs`` marks the file too.
_EVENT_SINK_NAMES = frozenset(
    {
        "EventLog",
        "EventSink",
        "GatewayEvent",
        "NULL_EVENT_SINK",
        "encode_canonical",
        "canonical_projection",
        "row_digest",
    }
)

#: (module, attribute) calls that block the event loop (ASY001).
_BLOCKING_MODULE_CALLS = frozenset(
    {
        ("time", "sleep"),
        ("os", "fdatasync"),
        ("os", "fsync"),
        ("os", "sync"),
        ("socket", "create_connection"),
    }
)

#: Method names that perform whole-file I/O on any receiver (ASY001);
#: unambiguous pathlib helpers, so receiver typing is not needed.
_BLOCKING_FILE_METHODS = frozenset(
    {"write_text", "write_bytes", "read_text", "read_bytes"}
)

#: Call names that spawn an unsupervised task (ASY003) when discarded.
_TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})

#: Source-comment markers driving the ASY004 ownership analysis.
_LOOP_OWNED_MARKER = "comlint: loop-owned"
_LOOP_ENTRY_MARKER = "comlint: loop-entry"

#: Encoder/decoder pairing suffixes for WIRE001.
_WIRE_ENCODER_SUFFIX = "_to_wire"
_WIRE_DECODER_SUFFIX = "_from_wire"

#: Decoder call methods whose first string argument reads a field.
_DICT_READ_METHODS = frozenset({"get", "pop"})


@dataclass(frozen=True, slots=True)
class Violation:
    """One lint finding.

    ``path`` is stored POSIX-relative to the lint root so reports are
    machine-independent.
    """

    rule_id: str
    path: str
    line: int
    column: int
    message: str
    source_line: str = ""

    def render(self) -> str:
        """The canonical one-line text form."""
        return (
            f"{self.path}:{self.line}:{self.column + 1}: "
            f"{self.rule_id} {self.message}"
        )


class _Suppressions:
    """Per-file suppression state parsed from comment text."""

    def __init__(self, source: str):
        self.by_line: dict[int, set[str]] = {}
        self.file_wide: set[str] = set()
        for number, text in enumerate(source.splitlines(), start=1):
            marker = text.find("# comlint:")
            if marker < 0:
                continue
            directive = text[marker + len("# comlint:") :].strip()
            if directive.startswith("disable-file="):
                self.file_wide.update(
                    self._parse_ids(directive[len("disable-file=") :])
                )
            elif directive.startswith("disable="):
                self.by_line.setdefault(number, set()).update(
                    self._parse_ids(directive[len("disable=") :])
                )

    @staticmethod
    def _parse_ids(raw: str) -> set[str]:
        ids = {part.strip() for part in raw.split(",") if part.strip()}
        return {"all"} if "all" in ids else ids

    def active(self, rule_id: str, line: int) -> bool:
        """True iff ``rule_id`` is suppressed at ``line``."""
        for pool in (self.file_wide, self.by_line.get(line, ())):
            if "all" in pool or rule_id in pool:
                return True
        return False


class _Checker(ast.NodeVisitor):
    """One pass over a module AST, emitting violations for every rule."""

    def __init__(self, path: str, source: str, rules: dict[str, Rule]):
        self.path = path
        self.lines = source.splitlines()
        self.rules = rules
        self.suppressions = _Suppressions(source)
        self.violations: list[Violation] = []
        #: Stack of (function node, line of first `.enabled` mention or None).
        self._function_stack: list[ast.AST] = []
        #: Per-function lines on which `.enabled` is read (OBS001 heuristic).
        self._enabled_lines: dict[ast.AST, list[int]] = {}
        #: Ancestor chain maintained by generic_visit wrapper.
        self._parents: list[ast.AST] = []
        #: Class bodies currently decorated as dataclasses.
        self._dataclass_depth = 0
        #: OBS002 state: whether an event-sink import was seen, and every
        #: json.dumps/json.dump call site.  Resolved in :meth:`finalize`
        #: because the import may appear *after* the call in source order
        #: (function-local imports are common in this codebase).
        self._imports_event_sink = False
        self._json_dump_calls: list[ast.Call] = []
        #: DET005 state: local names bound to the numpy module and to the
        #: numpy.random submodule, plus every ``<name>.<attr>`` access,
        #: paired up in :meth:`finalize` for the same source-order reason
        #: as OBS002 (lazy function-local numpy imports are the norm).
        self._numpy_aliases: set[str] = set()
        self._numpy_random_aliases: set[str] = set()
        self._attribute_reads: list[tuple[str, str, ast.Attribute]] = []
        #: ASY002 state: names of coroutine functions defined anywhere in
        #: this module (functions and methods pooled), names also defined
        #: as *sync* somewhere (ambiguous — excluded), and every bare
        #: statement-expression call, paired up in :meth:`finalize`.
        self._async_def_names: set[str] = set()
        self._sync_def_names: set[str] = set()
        self._bare_statement_calls: list[ast.Call] = []
        #: The module node, kept for the whole-module WIRE001/ASY004
        #: passes in :meth:`finalize`.
        self._module: ast.Module | None = None

    # -- plumbing ----------------------------------------------------------

    def emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        rule = self.rules.get(rule_id)
        if rule is None or rule.allows(self.path):
            return
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        if self.suppressions.active(rule_id, line):
            return
        source_line = (
            self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        )
        self.violations.append(
            Violation(rule_id, self.path, line, column, message, source_line)
        )

    def visit(self, node: ast.AST) -> None:
        self._parents.append(node)
        try:
            super().visit(node)
        finally:
            self._parents.pop()

    def visit_Module(self, node: ast.Module) -> None:
        self._module = node
        self.generic_visit(node)

    def _in_async_function(self) -> bool:
        """True iff the current node sits inside an ``async def`` body.

        The innermost enclosing function decides: a sync helper nested
        inside an async function runs wherever it is called from, so it
        is out of scope for ASY001 (flagging it would double-report the
        call site).
        """
        for ancestor in reversed(self._parents[:-1]):
            if isinstance(ancestor, ast.AsyncFunctionDef):
                return True
            if isinstance(ancestor, (ast.FunctionDef, ast.Lambda)):
                return False
        return False

    @staticmethod
    def _call_name(node: ast.Call) -> str | None:
        """The trailing name of a call target (``f`` or ``obj.f``)."""
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        return None

    def _line_has_marker(self, lineno: int, marker: str) -> bool:
        if 0 < lineno <= len(self.lines):
            return marker in self.lines[lineno - 1]
        return False

    # -- DET001 / DET002 / DET004: forbidden calls -------------------------

    def visit_Call(self, node: ast.Call) -> None:
        function = node.func
        if isinstance(function, ast.Attribute) and isinstance(
            function.value, ast.Name
        ):
            owner, attribute = function.value.id, function.attr
            if owner == "random" and attribute == "Random":
                self.emit(
                    "DET001",
                    node,
                    "direct random.Random(...) construction; derive the "
                    "stream via repro.utils.rng (derive_rng / SeedSequence)",
                )
            elif owner == "random" and attribute in _RANDOM_MODULE_FUNCTIONS:
                self.emit(
                    "DET001",
                    node,
                    f"module-level random.{attribute}() draws from the "
                    "shared global stream; use a labelled rng from "
                    "repro.utils.rng",
                )
            elif (owner, attribute) in _WALL_CLOCK_CALLS:
                self.emit(
                    "DET002",
                    node,
                    f"wall-clock read {owner}.{attribute}() outside the "
                    "timing allowlist; use repro.utils.timer.Stopwatch or "
                    "the obs wall-clock keys",
                )
            elif owner == "json" and attribute in {"dumps", "dump"}:
                self._json_dump_calls.append(node)
        elif isinstance(function, ast.Name):
            if function.id == "hash" and node.args:
                self.emit(
                    "DET004",
                    node,
                    "builtin hash() is salted per process; use the "
                    "SHA-256 derivation in repro.utils.rng for seeds and "
                    "explicit sort keys for ordering",
                )
            elif function.id in {"set", "frozenset"}:
                self._check_set_iteration_parent(node)
        self._check_probe_call(node)
        if self._in_async_function():
            self._check_blocking_call(node)
        self.generic_visit(node)

    # -- ASY001: blocking calls inside async functions -----------------------

    def _check_blocking_call(self, node: ast.Call) -> None:
        """Emit ASY001 for a call that blocks the event loop.

        Heuristic by shape: module-level blocking functions
        (``time.sleep``, ``os.fdatasync`` …), anything on ``subprocess``,
        the builtin ``open``, and the unambiguous pathlib whole-file
        helpers.  Method calls like ``file.write`` are *not* matched —
        receiver typing is out of reach for an AST linter, and the
        sanctioned seams wrap those anyway.
        """
        function = node.func
        if isinstance(function, ast.Attribute):
            if isinstance(function.value, ast.Name):
                owner, attribute = function.value.id, function.attr
                if (owner, attribute) in _BLOCKING_MODULE_CALLS:
                    self.emit(
                        "ASY001",
                        node,
                        f"blocking {owner}.{attribute}(...) inside an async "
                        "function stalls every queued decision; offload "
                        "through the journal flush seam or pace via the "
                        "service clock",
                    )
                    return
                if owner == "subprocess":
                    self.emit(
                        "ASY001",
                        node,
                        f"subprocess.{attribute}(...) blocks the event loop "
                        "for the child's full runtime; use an asyncio "
                        "subprocess API or move it off the loop",
                    )
                    return
            if function.attr in _BLOCKING_FILE_METHODS:
                self.emit(
                    "ASY001",
                    node,
                    f".{function.attr}(...) performs whole-file I/O inside "
                    "an async function; read/write before entering the "
                    "loop or offload through the sanctioned flush seam",
                )
        elif isinstance(function, ast.Name) and function.id == "open":
            self.emit(
                "ASY001",
                node,
                "builtin open(...) inside an async function performs "
                "blocking file I/O; open files before entering the loop "
                "or offload through the sanctioned flush seam",
            )

    # -- ASY002 / ASY003: discarded coroutines and orphaned tasks ------------

    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            name = self._call_name(value)
            if name in _TASK_SPAWNERS:
                self.emit(
                    "ASY003",
                    value,
                    f"{name}(...) result discarded; the loop holds tasks "
                    "weakly, so an unreferenced task can be garbage-"
                    "collected mid-flight — keep the handle or attach a "
                    "done-callback",
                )
            elif isinstance(value.func, ast.Name) or (
                isinstance(value.func, ast.Attribute)
                and isinstance(value.func.value, ast.Name)
                and value.func.value.id in {"self", "cls"}
            ):
                # Candidate ASY002: bare name or self./cls. method call,
                # resolved in finalize once every module-local
                # `async def` name is known.  Foreign receivers
                # (`writer.close()`) are excluded — their methods only
                # coincide with local coroutine names by accident.
                self._bare_statement_calls.append(value)
        self.generic_visit(node)

    # -- OBS002: raw serialization in event-sink-aware modules --------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == _EVENT_SINK_MODULE or alias.name.startswith(
                f"{_EVENT_SINK_MODULE}."
            ):
                self._imports_event_sink = True
            if alias.name == "numpy":
                self._numpy_aliases.add(alias.asname or "numpy")
            elif alias.name == "numpy.random":
                if alias.asname is None:
                    # ``import numpy.random`` binds the top-level package.
                    self._numpy_aliases.add("numpy")
                else:
                    self._numpy_random_aliases.add(alias.asname)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == _EVENT_SINK_MODULE:
            self._imports_event_sink = True
        elif module == "repro.obs" and any(
            alias.name in _EVENT_SINK_NAMES for alias in node.names
        ):
            self._imports_event_sink = True
        if module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self._numpy_random_aliases.add(alias.asname or "random")
        elif module == "numpy.random" or module.startswith("numpy.random."):
            self.emit(
                "DET005",
                node,
                "import from numpy.random; draw from a labelled "
                "random.Random stream (repro.utils.rng)",
            )
        self.generic_visit(node)

    # -- DET005: numpy.random anywhere ---------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name):
            self._attribute_reads.append((node.value.id, node.attr, node))
        self.generic_visit(node)

    def _finalize_numpy_random(self) -> None:
        """Emit DET005 for ``<numpy alias>.random`` / ``<random alias>.*``.

        Matching on the ``np.random`` attribute node itself (rather than
        the full ``np.random.default_rng`` chain) reports each chain once
        and also catches the bare submodule being passed around.
        """
        for owner, attribute, node in self._attribute_reads:
            if owner in self._numpy_aliases and attribute == "random":
                self.emit(
                    "DET005",
                    node,
                    f"{owner}.random access; draw from a labelled "
                    "random.Random stream (repro.utils.rng)",
                )
            elif owner in self._numpy_random_aliases:
                self.emit(
                    "DET005",
                    node,
                    f"numpy.random (as {owner!r}) use; draw from a "
                    "labelled random.Random stream (repro.utils.rng)",
                )

    def finalize(self) -> None:
        """Checks needing whole-module context, run after the AST pass.

        OBS002 pairs two facts that may appear in either source order
        (this codebase imports lazily inside functions): the module
        touches the event-sink layer, and it also calls ``json.dumps`` /
        ``json.dump`` directly.  ASY002 similarly needs the full
        ``async def`` name inventory before bare calls can be judged,
        and ASY004/WIRE001 analyse whole class bodies.
        """
        self._finalize_unawaited_coroutines()
        self._finalize_loop_ownership()
        self._finalize_wire_parity()
        self._finalize_numpy_random()
        if not self._imports_event_sink:
            return
        for call in self._json_dump_calls:
            self.emit(
                "OBS002",
                call,
                "direct json serialization in an event-sink-aware module; "
                "encode via repro.obs.events.encode_canonical (or emit "
                "through the EventLog) so COMEVT1 byte-identity digests "
                "stay comparable",
            )

    # -- ASY002: bare calls of module-local coroutine functions --------------

    def _finalize_unawaited_coroutines(self) -> None:
        """Emit ASY002 for statement-expression calls of coroutines.

        Scope is module-local names (functions and methods pooled): a
        bare call whose trailing name matches an ``async def`` defined
        in this file builds a coroutine and throws it away.  Names also
        defined as a *sync* function somewhere in the file are
        ambiguous and skipped.
        """
        for call in self._bare_statement_calls:
            name = self._call_name(call)
            if name in self._async_def_names and name not in self._sync_def_names:
                self.emit(
                    "ASY002",
                    call,
                    f"{name}(...) is a coroutine function; a bare call "
                    "builds the coroutine without running it — await it "
                    "or hand it to asyncio.create_task/gather",
                )

    # -- ASY004: loop-owned state mutated off the decision loop --------------

    def _finalize_loop_ownership(self) -> None:
        if self._module is None:
            return
        for node in ast.walk(self._module):
            if isinstance(node, ast.ClassDef):
                self._check_class_ownership(node)

    def _check_class_ownership(self, klass: ast.ClassDef) -> None:
        """Per-class ownership analysis driven by source markers.

        Attributes assigned on a ``# comlint: loop-owned`` line are the
        guarded set.  Allowed mutators are methods reachable (through
        ``self.``/``cls.`` calls) from the decision loop's roots —
        ``_decision_loop`` plus any method whose ``def`` line carries
        ``# comlint: loop-entry`` — or from setup code (``__init__``
        and classmethods/staticmethods, which construct instances
        before any loop exists).  Everything else runs on a caller task
        and must not touch the guarded attributes.
        """
        methods = {
            statement.name: statement
            for statement in klass.body
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        owned: set[str] = set()
        for method in methods.values():
            for child in ast.walk(method):
                if isinstance(
                    child, (ast.Assign, ast.AnnAssign)
                ) and self._line_has_marker(child.lineno, _LOOP_OWNED_MARKER):
                    targets = (
                        child.targets
                        if isinstance(child, ast.Assign)
                        else [child.target]
                    )
                    for target in targets:
                        attribute = self._self_attribute_of(target)
                        if attribute is not None:
                            owned.add(attribute)
        if not owned:
            return
        edges = {
            name: self._self_calls(method) for name, method in methods.items()
        }
        roots = {
            name
            for name, method in methods.items()
            if name == "_decision_loop"
            or name == "__init__"
            or self._is_classmethod_or_static(method)
            or self._line_has_marker(method.lineno, _LOOP_ENTRY_MARKER)
        }
        allowed = self._reachable(roots, edges)
        for name in sorted(set(methods) - allowed):
            for attribute, node in self._owned_mutations(methods[name], owned):
                self.emit(
                    "ASY004",
                    node,
                    f"self.{attribute} is loop-owned but {name}() is not on "
                    "the decision loop's call graph; route the mutation "
                    "through the loop, or mark a deliberate cross-task "
                    "touch with an inline suppression plus "
                    "OwnershipGuard.handoff()",
                )

    @staticmethod
    def _self_attribute_of(node: ast.expr) -> str | None:
        """``self.attr`` / ``self.attr[...]`` → ``attr`` (else None)."""
        if isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    @staticmethod
    def _self_calls(method: ast.AST) -> set[str]:
        calls: set[str] = set()
        for child in ast.walk(method):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id in {"self", "cls"}
            ):
                calls.add(child.func.attr)
        return calls

    @staticmethod
    def _is_classmethod_or_static(
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> bool:
        for decorator in method.decorator_list:
            target = (
                decorator.func if isinstance(decorator, ast.Call) else decorator
            )
            if isinstance(target, ast.Name) and target.id in {
                "classmethod",
                "staticmethod",
            }:
                return True
        return False

    @staticmethod
    def _reachable(roots: set[str], edges: dict[str, set[str]]) -> set[str]:
        seen = {name for name in roots if name in edges}
        frontier = list(seen)
        while frontier:
            current = frontier.pop()
            for callee in edges.get(current, ()):
                if callee in edges and callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return seen

    def _owned_mutations(
        self, method: ast.AST, owned: set[str]
    ) -> list[tuple[str, ast.AST]]:
        """Mutations of owned attributes inside one method.

        Counts assignment/augmented-assignment/deletion targeting
        ``self.attr`` (or an item of it) and *any* method call on
        ``self.attr`` — mutating and reading method calls cannot be
        told apart syntactically, and even reads of loop-owned state
        are suspect off the loop (torn mid-decision views).
        """
        found: list[tuple[str, ast.AST]] = []
        for child in ast.walk(method):
            if isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    attribute = self._self_attribute_of(target)
                    if attribute in owned:
                        found.append((attribute, child))
            elif isinstance(child, ast.Delete):
                for target in child.targets:
                    attribute = self._self_attribute_of(target)
                    if attribute in owned:
                        found.append((attribute, child))
            elif isinstance(child, ast.Call) and isinstance(
                child.func, ast.Attribute
            ):
                attribute = self._self_attribute_of(child.func.value)
                if attribute in owned:
                    found.append((attribute, child))
        return found

    # -- WIRE001: encoder/decoder field parity --------------------------------

    def _finalize_wire_parity(self) -> None:
        """Pair wire codecs and cross-check their field inventories.

        Two pairing shapes: module-level ``<entity>_to_wire`` /
        ``<entity>_from_wire`` functions, and ``as_dict`` /
        ``from_dict`` methods of one class.  The encoder inventory is
        every string key of a dict literal in the encoder; the decoder
        inventory is every string subscript plus ``.get()``/``.pop()``
        first argument.  Either side empty means the codec delegates
        (no literal schema to compare) and the pair is skipped.
        """
        if self._module is None:
            return
        functions = {
            statement.name: statement
            for statement in self._module.body
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for name in sorted(functions):
            if not name.endswith(_WIRE_ENCODER_SUFFIX):
                continue
            entity = name[: -len(_WIRE_ENCODER_SUFFIX)]
            decoder = functions.get(f"{entity}{_WIRE_DECODER_SUFFIX}")
            if decoder is not None:
                self._check_codec_pair(
                    functions[name], decoder, f"{entity} wire codec"
                )
        for node in ast.walk(self._module):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                statement.name: statement
                for statement in node.body
                if isinstance(
                    statement, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
            }
            encoder = methods.get("as_dict")
            decoder = methods.get("from_dict")
            if encoder is not None and decoder is not None:
                self._check_codec_pair(
                    encoder, decoder, f"{node.name}.as_dict/from_dict"
                )

    def _check_codec_pair(
        self,
        encoder: ast.FunctionDef | ast.AsyncFunctionDef,
        decoder: ast.FunctionDef | ast.AsyncFunctionDef,
        label: str,
    ) -> None:
        written = self._encoded_fields(encoder)
        read = self._decoded_fields(decoder)
        if not written or not read:
            return
        encoder_only = sorted(written - read)
        decoder_only = sorted(read - written)
        if encoder_only:
            self.emit(
                "WIRE001",
                encoder,
                f"{label}: encoder writes field(s) the decoder never "
                f"reads: {', '.join(encoder_only)} — replay silently "
                "drops them",
            )
        if decoder_only:
            self.emit(
                "WIRE001",
                decoder,
                f"{label}: decoder reads field(s) the encoder never "
                f"writes: {', '.join(decoder_only)} — they decode to "
                "defaults forever",
            )

    @staticmethod
    def _encoded_fields(
        function: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> set[str]:
        fields: set[str] = set()
        for child in ast.walk(function):
            if isinstance(child, ast.Dict):
                for key in child.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        fields.add(key.value)
        return fields

    @staticmethod
    def _decoded_fields(
        function: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> set[str]:
        fields: set[str] = set()
        for child in ast.walk(function):
            if isinstance(child, ast.Subscript):
                index = child.slice
                if isinstance(index, ast.Constant) and isinstance(
                    index.value, str
                ):
                    fields.add(index.value)
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _DICT_READ_METHODS
                and child.args
            ):
                first = child.args[0]
                if isinstance(first, ast.Constant) and isinstance(
                    first.value, str
                ):
                    fields.add(first.value)
        return fields

    # -- DET003: unordered iteration ---------------------------------------

    def _iterables_of(self, node: ast.AST) -> list[ast.expr]:
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            return [node.iter]
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            return [generator.iter for generator in node.generators]
        return []

    def _check_set_iteration_parent(self, node: ast.expr) -> None:
        """Emit DET003 when ``node`` (a set expression) is iterated raw."""
        parent = self._parents[-2] if len(self._parents) >= 2 else None
        if parent is None:
            return
        if node in self._iterables_of(parent):
            self.emit(
                "DET003",
                node,
                "iterating a set directly; wrap in sorted(...) so output "
                "order is independent of PYTHONHASHSEED",
            )

    def visit_Set(self, node: ast.Set) -> None:
        self._check_set_iteration_parent(node)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_set_iteration_parent(node)
        self.generic_visit(node)

    def _check_keys_iteration(self, iterable: ast.expr) -> None:
        if (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Attribute)
            and iterable.func.attr == "keys"
            and not iterable.args
        ):
            self.emit(
                "DET003",
                iterable,
                "iterating an explicit .keys() view; iterate the mapping "
                "itself (insertion order) or sorted(mapping) for reports",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_keys_iteration(node.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        for generator in node.generators:
            self._check_keys_iteration(generator.iter)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        for generator in node.generators:
            self._check_keys_iteration(generator.iter)
        self.generic_visit(node)

    # -- OBS001: probe emissions need an enabled guard ----------------------

    @staticmethod
    def _is_probe_receiver(value: ast.expr) -> bool:
        """The receiver reads as a probe: ``probe`` / ``self.probe`` /
        ``context.probe`` / ``self._probe``."""
        if isinstance(value, ast.Name):
            return value.id in {"probe", "_probe"}
        if isinstance(value, ast.Attribute):
            return value.attr in {"probe", "_probe"}
        return False

    def _check_probe_call(self, node: ast.Call) -> None:
        function = node.func
        if not (
            isinstance(function, ast.Attribute)
            and function.attr in _PROBE_METHODS
            and self._is_probe_receiver(function.value)
        ):
            return
        # Guarded when an ancestor if/ifexp/while tests `.enabled`, or the
        # enclosing function already read `.enabled` on an earlier line
        # (covers the early-return and `span is not None` follow-up
        # patterns: both start from one explicit enabled check).
        for ancestor in reversed(self._parents[:-1]):
            test = getattr(ancestor, "test", None)
            if test is not None and self._mentions_enabled(test):
                return
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                enabled_lines = self._enabled_lines.get(ancestor, [])
                if any(line <= node.lineno for line in enabled_lines):
                    return
                break
        else:
            # Module level (docs snippets, scripts): out of scope.
            return
        self.emit(
            "OBS001",
            node,
            f"probe.{function.attr}(...) without a probe.enabled guard in "
            "scope; gate it (or hoist an `if probe.enabled:` early return) "
            "to protect the disabled-path overhead budget",
        )

    @staticmethod
    def _mentions_enabled(test: ast.expr) -> bool:
        return any(
            isinstance(child, ast.Attribute) and child.attr == "enabled"
            for child in ast.walk(test)
        )

    def _index_enabled_reads(self, function: ast.AST) -> None:
        lines = [
            child.lineno
            for child in ast.walk(function)
            if isinstance(child, ast.Attribute) and child.attr == "enabled"
        ]
        self._enabled_lines[function] = sorted(lines)

    # -- ERR001 / ERR002: exception hygiene ---------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.emit(
                "ERR001",
                node,
                "bare `except:`; name the exception types (and re-raise "
                "with SimulationError context where applicable)",
            )
        elif self._is_broad(node.type) and not self._reraises(node):
            self.emit(
                "ERR002",
                node,
                "broad except handler swallows the exception; re-raise, "
                "or wrap it in a structured SimulationError",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_broad(exception_type: ast.expr) -> bool:
        names = (
            [exception_type]
            if not isinstance(exception_type, ast.Tuple)
            else list(exception_type.elts)
        )
        for name in names:
            if isinstance(name, ast.Name) and name.id in {
                "Exception",
                "BaseException",
            }:
                return True
        return False

    @staticmethod
    def _reraises(node: ast.ExceptHandler) -> bool:
        return any(isinstance(child, ast.Raise) for child in ast.walk(node))

    # -- API001: mutable default arguments ----------------------------------

    def _is_mutable_value(self, value: ast.expr) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.SetComp, ast.DictComp)):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_CONSTRUCTORS
        )

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            if self._is_mutable_value(default):
                self.emit(
                    "API001",
                    default,
                    "mutable default argument is shared across calls; "
                    "default to None and build inside the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._index_enabled_reads(node)
        self._sync_def_names.add(node.name)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._index_enabled_reads(node)
        self._async_def_names.add(node.name)
        self.generic_visit(node)

    # -- API002: mutable dataclass defaults ---------------------------------

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if isinstance(target, ast.Name) and target.id == "dataclass":
                return True
            if isinstance(target, ast.Attribute) and target.attr == "dataclass":
                return True
        return False

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self._is_dataclass(node):
            self.generic_visit(node)
            return
        for statement in node.body:
            if not isinstance(statement, ast.AnnAssign) or statement.value is None:
                continue
            value = statement.value
            if self._is_mutable_value(value):
                self.emit(
                    "API002",
                    value,
                    "mutable dataclass field default; use "
                    "field(default_factory=...)",
                )
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "field"
            ):
                for keyword in value.keywords:
                    if keyword.arg == "default" and self._is_mutable_value(
                        keyword.value
                    ):
                        self.emit(
                            "API002",
                            keyword.value,
                            "field(default=<mutable>) aliases one container "
                            "across instances; use default_factory",
                        )
        self.generic_visit(node)


def lint_source(
    source: str, path: str, rules: dict[str, Rule] | None = None
) -> list[Violation]:
    """Lint one module's source text; ``path`` labels the findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Violation(
                "E999",
                path,
                error.lineno or 1,
                (error.offset or 1) - 1,
                f"syntax error: {error.msg}",
            )
        ]
    checker = _Checker(path, source, rules if rules is not None else RULES)
    checker.visit(tree)
    checker.finalize()
    return sorted(
        checker.violations, key=lambda v: (v.path, v.line, v.column, v.rule_id)
    )


def _label_for(path: Path, root: Path | None) -> str:
    """The POSIX path label findings carry (relative to ``root`` if possible)."""
    if root is not None:
        try:
            return path.relative_to(root).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def lint_file(
    path: Path, root: Path | None = None, rules: dict[str, Rule] | None = None
) -> list[Violation]:
    """Lint one file; findings carry paths relative to ``root``."""
    return lint_source(
        path.read_text(encoding="utf-8"), _label_for(path, root), rules
    )


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: set[Path] = set()
    for path in paths:
        if path.is_dir():
            collected.update(
                candidate
                for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts
            )
        elif path.suffix == ".py":
            collected.add(path)
    return sorted(collected)


def lint_paths(
    paths: list[Path],
    root: Path | None = None,
    rules: dict[str, Rule] | None = None,
) -> list[Violation]:
    """Lint every python file under ``paths``; sorted, deterministic."""
    if root is None:
        root = Path.cwd()
    violations = [
        violation
        for path in iter_python_files(paths)
        for violation in lint_file(path, root, rules)
    ]
    return sorted(
        violations, key=lambda v: (v.path, v.line, v.column, v.rule_id)
    )
