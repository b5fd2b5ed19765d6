"""Span tracing of qcut's layers from outside the package.

The tracer wraps the module-level names through which each layer is
called (``HOOKS``) and restores them afterwards; nothing in ``src/``
changes.  Each span records its name, start, end, parent and thread id and
stays in memory until the run ends.  A span opened on a thread with no
open span of its own (an estimator shard on a pool thread) takes the
caller's innermost open span as its parent.

A shard runs from its per-shard ``stream`` call to the end of the last
span on that thread before the next shard.  Self time is a span's duration
minus the durations of its children on the same thread.  A span whose
children run on other threads (an nproc-thread ``experiments.run``) only
waits from the first to the last of them, so that window is not its self
time; instead the time of its shards outside their hooked spans (the shard
kernels' own code on the pool threads) is, as it is in a 1-thread run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time


def _teleport_m(args, kwargs):
    channel = args[1] if len(args) > 1 else kwargs["channel"]
    return channel.m


def _sample_states_amps(args, kwargs):
    dim = args[0] if args else kwargs["dim"]
    count = args[1] if len(args) > 1 else kwargs["count"]
    return (count, dim * count)


def _run_threads(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("threads", 1)


# (module, attribute, span name, argument reader or None)
HOOKS = (
    ("qcut.cli", "main", "cli.main", None),
    ("qcut.experiments", "run_experiment", "experiments.run", _run_threads),
    ("qcut.experiments", "relation_check", "experiments.exact", None),
    ("qcut.experiments", "composition_check", "experiments.exact", None),
    ("qcut.experiments", "exact_pure_via_moments", "experiments.exact", None),
    ("qcut.experiments", "exact_entangled_via_moments", "experiments.exact", None),
    ("qcut.experiments", "horodecki_bound", "experiments.exact", None),
    ("qcut.experiments", "stream", "rng.stream", None),
    ("qcut.cli", "stream", "rng.stream", None),
    ("qcut.experiments", "sample_states", "haar.sample_states", _sample_states_amps),
    ("qcut.cli", "sample_state", "haar.sample_state", None),
    ("qcut.experiments", "exact_moment_fraction", "haar.exact_moment", None),
    ("qcut.experiments", "sample_outcome", "povm.sample_outcome", None),
    ("qcut.channel", "sample_outcome", "povm.sample_outcome", None),
    ("qcut.povm", "project_pure", "povm.project", None),
    ("qcut.povm", "project_bipartite", "povm.project", None),
    ("qcut.cli", "_max_completeness_deviation", "povm.completeness", None),
    ("qcut.experiments", "partial_trace", "linalg.partial_trace", None),
    ("qcut.fidelity", "matrix_sqrt", "linalg.matrix_sqrt", None),
    ("qcut.experiments", "bures_fidelity", "fidelity.bures", None),
    ("qcut.channel", "overlap_fidelity", "fidelity.overlap", None),
    ("qcut.cli", "overlap_fidelity", "fidelity.overlap", None),
    ("qcut.cli", "full_protocol", "channel.full_protocol", None),
    ("qcut.channel", "make_channel", "channel.make_channel", None),
    ("qcut.channel", "teleport", "channel.teleport", _teleport_m),
)

LAYERS = ("rng", "haar", "povm", "linalg", "fidelity", "channel", "experiments", "cli")

# Values derived from array shapes rather than timed or counted.
COMPUTED = ("channel.bell_bytes_computed", "channel.outcomes_used_ratio")


class Span:
    __slots__ = ("id", "hook", "name", "start", "end", "parent", "tid", "arg", "error")

    def __init__(self, id_, hook, name, start, parent, tid, arg):
        self.id = id_
        self.hook = hook
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tid = tid
        self.arg = arg
        self.error = False

    def as_list(self):
        return [self.id, self.name, self.start, self.end, self.parent, self.tid, self.arg, self.error]


class Tracer:
    """Installs the hooks while enabled and collects the finished spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._caller_stack: list[int] = []
        self._caller_tid = threading.get_ident()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self):
        if threading.get_ident() == self._caller_tid:
            return self._caller_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, hook: str, name: str, fn, reader):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                caller = tracer._caller_stack
                parent = caller[-1] if caller else None
            span = Span(next(tracer._ids), hook, name, 0, parent, threading.get_ident(),
                        reader(args, kwargs) if reader else None)
            stack.append(span.id)
            span.start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def install(self):
        """Wrap every hooked name; raise if one no longer exists."""
        missing = []
        targets = []
        for mod_name, attr, name, reader in HOOKS:
            module = importlib.import_module(mod_name)
            if not callable(getattr(module, attr, None)):
                missing.append(f"{mod_name}.{attr}")
                continue
            targets.append((module, attr, name, reader))
        if missing:
            raise LookupError("hooked names no longer exist: " + ", ".join(missing))
        for module, attr, name, reader in targets:
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module.__name__}.{attr}", name, original, reader))

    def remove(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def percentile(values, q: int) -> float:
    values = sorted(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def analyse(spans: list[Span], cycles: int, speed: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced cycle, as {name: (value, unit)}.

    Durations are multiplied by ``speed``, the run's calibration factor.
    """
    by_id = {s.id: s for s in spans}
    child_time: dict[int, int] = {}
    cross: dict[int, list[int]] = {}  # parent id -> [first start, last end, summed ns] of other-thread children
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is None:
            continue
        if parent.tid == s.tid:
            child_time[parent.id] = child_time.get(parent.id, 0) + (s.end - s.start)
        elif parent.id in cross:
            window = cross[parent.id]
            window[0] = min(window[0], s.start)
            window[1] = max(window[1], s.end)
            window[2] += s.end - s.start
        else:
            cross[parent.id] = [s.start, s.end, s.end - s.start]
    self_ns = {s.id: (s.end - s.start) - child_time.get(s.id, 0) for s in spans}
    shards = _shards(spans, by_id)
    for run, duration in shards:
        if run in cross:
            self_ns[run] += duration
    for parent_id, (first, last, summed) in cross.items():
        self_ns[parent_id] -= (last - first) + summed

    def named(name):
        return [s for s in spans if s.name == name]

    def self_of(items):
        return sum(self_ns[s.id] for s in items) * ns

    def self_s(prefix):
        return self_of(s for s in spans if s.name == prefix or s.name.startswith(prefix + "."))

    def incl_s(items):
        return sum(s.end - s.start for s in items) * ns

    per = 1.0 / cycles
    ns = speed / 1e9
    out: dict[str, tuple[float, str]] = {}

    outcomes = named("povm.sample_outcome")
    projects = named("povm.project")
    out["povm.sample_outcome.calls"] = (len(outcomes) * per, "count")
    out["povm.sample_outcome.self_s"] = (self_of(outcomes) * per, "s")
    out["povm.us_per_outcome"] = (incl_s(outcomes) * 1e6 / len(outcomes) if outcomes else 0.0, "us")
    out["povm.project.calls"] = (len(projects) * per, "count")
    out["povm.project.self_s"] = (self_of(projects) * per, "s")

    batches = named("haar.sample_states")
    rows = sum(s.arg[0] for s in batches)
    amps = sum(s.arg[1] for s in batches)
    out["haar.sample_states.calls"] = (len(batches) * per, "count")
    out["haar.sample_states.rows"] = (rows * per, "count")
    out["haar.self_s"] = (self_s("haar") * per, "s")
    out["haar.ns_per_amplitude"] = (incl_s(batches) * 1e9 / amps if amps else 0.0, "ns")

    out["rng.stream.calls"] = (len(named("rng.stream")) * per, "count")

    out["linalg.partial_trace.calls"] = (len(named("linalg.partial_trace")) * per, "count")
    out["linalg.self_s"] = (self_s("linalg") * per, "s")

    out["fidelity.bures.calls"] = (len(named("fidelity.bures")) * per, "count")
    out["fidelity.bures.self_s"] = (self_s("fidelity.bures") * per, "s")
    out["fidelity.overlap.calls"] = (len(named("fidelity.overlap")) * per, "count")
    out["fidelity.overlap.self_s"] = (self_s("fidelity.overlap") * per, "s")

    teleports = named("channel.teleport")
    sizes = [s.arg for s in teleports]
    out["channel.teleport.calls"] = (len(teleports) * per, "count")
    out["channel.teleport.self_s"] = (self_s("channel.teleport") * per, "s")
    out["channel.teleport.ms_p50"] = (percentile([(s.end - s.start) * ns * 1e3 for s in teleports], 50), "ms")
    out["channel.make_channel.self_s"] = (self_s("channel.make_channel") * per, "s")
    # complex128 Bell tensor [a, b, i, i'] cached once per distinct M
    out["channel.bell_bytes_computed"] = (float(sum(16 * m**4 for m in set(sizes))), "B")
    # one Bell outcome is used of the M^2 whose amplitudes are computed
    out["channel.outcomes_used_ratio"] = (len(sizes) / sum(m * m for m in sizes) if sizes else 0.0, "ratio")

    runs = named("experiments.run")
    threaded = [s for s in runs if s.arg and s.arg > 1]
    threaded_ids = {s.id for s in threaded}
    busy = sum(d for run, d in shards if run in threaded_ids)
    out["experiments.run.calls"] = (len(runs) * per, "count")
    out["experiments.self_s"] = (self_s("experiments") * per, "s")
    out["experiments.shard_s_p50"] = (percentile([d * ns for _, d in shards], 50), "s")
    out["experiments.shard_s_max"] = (max((d for _, d in shards), default=0) * ns, "s")
    out["experiments.parallelism"] = (busy / sum(s.end - s.start for s in threaded) if threaded else 0.0, "ratio")
    out["experiments.exact.self_s"] = (self_s("experiments.exact") * per, "s")
    out["cli.self_s"] = (self_s("cli") * per, "s")

    for layer in LAYERS:
        errors = sum(1 for s in spans if s.error and s.name.split(".", 1)[0] == layer)
        out[f"{layer}.errors"] = (errors * per, "count")
    return out


def _shards(spans, by_id) -> list[tuple[int, int]]:
    """(experiments.run span id, shard duration ns) for every estimator shard."""
    run_of: dict[int, int | None] = {}

    def owning_run(span_id):
        chain = []
        found = None
        while span_id is not None:
            if span_id in run_of:
                found = run_of[span_id]
                break
            span = by_id.get(span_id)
            if span is None:
                break
            if span.name == "experiments.run":
                found = span.id
                break
            chain.append(span_id)
            span_id = span.parent
        for sid in chain:
            run_of[sid] = found
        return found

    groups: dict[tuple[int, int], list[Span]] = {}
    for s in spans:
        run = owning_run(s.parent) if s.name != "experiments.run" else None
        if run is not None:
            groups.setdefault((run, s.tid), []).append(s)
    shards = []
    for (run, _), members in groups.items():
        members.sort(key=lambda s: s.start)
        start = end = None
        for s in members:
            if s.name == "rng.stream":
                if start is not None:
                    shards.append((run, end - start))
                start, end = s.start, s.end
            elif start is not None:
                end = max(end, s.end)
        if start is not None:
            shards.append((run, end - start))
    return shards


def coverage_problems(spans: list[Span], layers) -> list[str]:
    """Hooks that recorded no call, and declared layers that recorded none."""
    hook_calls = {f"{mod}.{attr}": 0 for mod, attr, _, _ in HOOKS}
    layer_calls = {layer: 0 for layer in LAYERS}
    for s in spans:
        hook_calls[s.hook] += 1
        layer_calls[s.name.split(".", 1)[0]] += 1
    problems = [f"layer {layer} recorded no call" for layer in layers if not layer_calls[layer]]
    problems += [f"hook {hook} recorded no call" for hook, n in hook_calls.items() if not n]
    return problems
