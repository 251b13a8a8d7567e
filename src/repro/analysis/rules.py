"""The comlint rule catalogue.

Each rule enforces one *project invariant* — a property the test suite can
only spot-check but the whole codebase must uphold (bit-for-bit
determinism, telemetry overhead budgets, structured error context, API
hygiene).  Rules are identified by a short stable id (``DET001``) used in
reports and inline suppressions (``# comlint: disable=DET001``).

The catalogue is data; the AST checks themselves live in
:mod:`repro.analysis.linter`.  Adding a rule means registering a
:class:`Rule` here and implementing its visitor hook there — the registry
keeps the CLI's ``--list-rules``, the docs table and the reporters in
sync automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Rule", "RULES", "rule_ids", "get_rule"]


@dataclass(frozen=True, slots=True)
class Rule:
    """One lint rule's identity and documentation.

    Attributes
    ----------
    rule_id:
        Stable short id (``DET001``); never reused once retired.
    name:
        Human-readable slug used in docs.
    summary:
        One-line statement of the invariant.
    rationale:
        Why the project cares — what silently breaks when violated.
    allowlist:
        Path suffixes (POSIX, relative) where the rule does not apply:
        the modules that *implement* the sanctioned mechanism.
    """

    rule_id: str
    name: str
    summary: str
    rationale: str
    allowlist: tuple[str, ...] = ()

    def allows(self, posix_path: str) -> bool:
        """True iff the rule is switched off for this file path.

        Entries ending with ``/`` match any file under a directory of
        that name; other entries match as path suffixes.
        """
        probe = f"/{posix_path}"
        for suffix in self.allowlist:
            if suffix.endswith("/"):
                if f"/{suffix}" in probe:
                    return True
            elif probe.endswith(f"/{suffix}"):
                return True
        return False


def _rule(
    rule_id: str,
    name: str,
    summary: str,
    rationale: str,
    allowlist: tuple[str, ...] = (),
) -> Rule:
    return Rule(rule_id, name, summary, rationale, allowlist)


#: The registry, ordered for reports and ``--list-rules``.
RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        _rule(
            "DET001",
            "direct-random",
            "No direct random.Random(...) construction or module-level "
            "random.* draws outside utils/rng.py.",
            "Every stochastic draw must flow through the label-derived "
            "streams of repro.utils.rng so a run is a pure function of "
            "(scenario, seed); a stray random.Random or random.random() "
            "silently couples unrelated components' streams and breaks "
            "bit-for-bit reproducibility.",
            allowlist=("utils/rng.py",),
        ),
        _rule(
            "DET002",
            "wall-clock",
            "No time.time()/time.perf_counter()/time.monotonic()/"
            "datetime.now() in deterministic result paths outside "
            "utils/timer.py, obs/ and service/clock.py.",
            "Wall-clock reads belong in the sanctioned Stopwatch / tracer "
            "wall-clock keys / service clock; anywhere else they leak "
            "nondeterminism into reported results and make byte-identical "
            "reruns impossible.",
            allowlist=("utils/timer.py", "obs/", "service/clock.py"),
        ),
        _rule(
            "DET003",
            "unordered-iteration",
            "Iteration over a set (or an explicit dict.keys() call) must "
            "go through sorted(...) before feeding ordered or reported "
            "output.",
            "Set iteration order depends on PYTHONHASHSEED; a bare "
            "`for x in {...}` (or `in set(...)` / `in d.keys()`) that "
            "builds a list, report or event order reorders output between "
            "interpreter invocations.",
        ),
        _rule(
            "DET004",
            "builtin-hash",
            "No builtin hash() for seeds, stream labels or ordering keys.",
            "hash() of str/bytes is salted per process (PYTHONHASHSEED); "
            "seed derivation must use the SHA-256 scheme in utils/rng.py, "
            "which is stable across processes and Python versions.",
            allowlist=("utils/rng.py",),
        ),
        _rule(
            "DET005",
            "numpy-random",
            "No numpy.random use anywhere (np.random.* access, "
            "from-imports of numpy.random).",
            "Every draw must come from a random.Random stream derived by "
            "the SHA-256 label scheme in utils/rng.py; a numpy.random "
            "draw runs on a stream no replay or byte-identity check "
            "tracks, and the engine is pure Python (DESIGN.md).",
        ),
        _rule(
            "OBS001",
            "unguarded-probe",
            "Probe emissions (span/instant/count/observe/gauge) in library "
            "code must sit behind a probe.enabled guard.",
            "The telemetry layer's disabled path is budgeted at <= 5% of "
            "mean decision latency (benchmarks/bench_telemetry_overhead"
            ".py); an unguarded emission pays label-dict construction on "
            "every call even when telemetry is off.",
            allowlist=("obs/",),
        ),
        _rule(
            "OBS002",
            "raw-event-serialization",
            "Modules that import the event-sink layer (repro.obs.events) "
            "must not call json.dumps/json.dump directly; encode through "
            "encode_canonical or emit via the EventLog.",
            "COMEVT1 byte-identity (replay verification, drain digests, "
            "soak stream comparison) hinges on one canonical encoder — "
            "sorted keys, compact separators.  An ad-hoc json.dumps next "
            "to event-sink code produces a second, near-identical encoding "
            "whose digests silently diverge from the recorded stream.",
            allowlist=(
                # The canonical encoder itself.
                "obs/events.py",
                # Presentation layers: HTTP/SSE bodies and CLI reports are
                # operator output, never fed back into identity checks.
                "service/dashboard.py",
                "cli.py",
            ),
        ),
        _rule(
            "ASY001",
            "blocking-call-in-async",
            "No blocking calls (time.sleep, builtin open, file "
            "read/write helpers, os.fdatasync/fsync, subprocess.*, "
            "socket.create_connection) inside async functions outside "
            "the sanctioned seams (the journal flush seam, the service "
            "clock).",
            "The gateway's decision loop serializes every matching "
            "decision; one blocking call inside an async function stalls "
            "every queued decision and every connected client for its "
            "full duration.  Blocking durability work belongs behind the "
            "journal's flush seam (service/journal.py) and paced sleeps "
            "behind the service clock (service/clock.py), where the "
            "offloading policy is implemented once.",
            allowlist=("service/journal.py", "service/clock.py"),
        ),
        _rule(
            "ASY002",
            "unawaited-coroutine",
            "A call to a coroutine function must be awaited or handed "
            "to asyncio.create_task/gather, never discarded as a bare "
            "statement.",
            "Calling `async def f` builds a coroutine object; as a bare "
            "expression statement the body never runs and the work is "
            "silently dropped (CPython warns only at GC time, long after "
            "the decision that depended on it).",
        ),
        _rule(
            "ASY003",
            "orphaned-task",
            "asyncio.create_task(...) / ensure_future(...) results must "
            "be retained (assigned, stored, passed on) or given a "
            "done-callback.",
            "The event loop holds tasks weakly: a task whose only "
            "reference is the create_task return value can be garbage-"
            "collected mid-flight, and its exceptions vanish without a "
            "traceback — silent task loss.  Keep the handle (the gateway "
            "stores its loop task on self) or attach a done-callback "
            "that retrieves the outcome.",
        ),
        _rule(
            "ASY004",
            "loop-owned-mutation",
            "State marked `# comlint: loop-owned` may only be mutated "
            "by the decision loop's call graph (methods reached from "
            "_decision_loop / `# comlint: loop-entry` methods, or setup "
            "code reached from __init__).",
            "The gateway is serialized-fail-stop by construction: the "
            "session, journal buffer and event ring are mutated only "
            "between decisions, on the decision loop's task.  A mutation "
            "from any other method runs on a caller task and can "
            "interleave mid-decision; deliberate cross-task touches must "
            "be suppressed inline (and wrapped in an OwnershipGuard "
            "handoff at runtime) so every one is reviewer-visible.",
        ),
        _rule(
            "WIRE001",
            "wire-schema-parity",
            "Paired wire codecs (<entity>_to_wire / <entity>_from_wire "
            "functions, as_dict / from_dict methods of one class) must "
            "read and write the same field inventory.",
            "The COMWAL1 / COMSNAP1 / COMEVT1 formats round-trip "
            "entities through dict codecs; a field added to an encoder "
            "but not its decoder silently drops data on replay (or vice "
            "versa: a decoder key no encoder produces reads defaults "
            "forever), and the divergence only surfaces when a recovery "
            "or byte-identity check fails far from the edit.",
        ),
        _rule(
            "ERR001",
            "bare-except",
            "No bare `except:` clauses.",
            "A bare except swallows KeyboardInterrupt/SystemExit and hides "
            "the structured SimulationError context the simulator relies "
            "on for diagnosable failures.",
        ),
        _rule(
            "ERR002",
            "swallowed-exception",
            "`except Exception` / `except BaseException` handlers must "
            "re-raise (plain or wrapped in a structured error).",
            "Broad handlers that absorb without re-raising convert "
            "mid-stream inconsistencies into silently-wrong results; "
            "failure paths must surface SimulationError context instead.",
        ),
        _rule(
            "API001",
            "mutable-default-arg",
            "No mutable default argument values (list/dict/set literals "
            "or constructor calls).",
            "Mutable defaults are shared across calls; use None plus an "
            "in-body default, or dataclasses.field(default_factory=...).",
        ),
        _rule(
            "API002",
            "mutable-dataclass-default",
            "No mutable dataclass field defaults; use "
            "field(default_factory=...).",
            "A shared mutable default aliases state across instances. "
            "CPython rejects bare list/dict/set defaults but not "
            "field(default=[...]) or other mutable containers.",
        ),
    )
}


def rule_ids() -> list[str]:
    """Every registered rule id, in catalogue order."""
    return list(RULES)


def get_rule(rule_id: str) -> Rule:
    """Look up one rule; raises ``KeyError`` with the known ids."""
    try:
        return RULES[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known rules: {', '.join(RULES)}"
        ) from None
