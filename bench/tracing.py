"""Per-layer tracing for the benchmark's traced run.

The library carries no tracing code. Instead, `Tracer.install` replaces
functions and methods of each layer, at the names their callers look up,
with wrappers that record one span per call: name, start, end and parent.
Spans stay in memory while a game is decided and are folded into per-name
call counts, inclusive time and self time once its verdict is out. Self
time is a span's duration minus the part its children cover; a child covers
its own duration plus the tracer's bookkeeping around it, calibrated once
per run on an empty function, so that the tracer's cost does not land in
the caller's layer. `uninstall` puts every original back; an untraced run
never calls `install`.

A few wrappers also read the solver's own `OpCounters` or results around
the call, to get counts where the work happens (dominion hits, attractor
rounds, operations issued inside `_reconstruct`).
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

SPACE_OPS = (
    "union", "intersect", "difference", "is_subset", "equals", "is_empty",
    "pre", "cpre", "copy", "release", "empty_set", "from_ids", "singleton",
    "raw_ids",
)
BASIC_KERNEL = ("union", "intersect", "difference", "is_subset", "equals")
RANK_METHODS = (
    "incr", "decr", "incr_at", "decr_at", "compare", "project", "size",
    "size_upper_bound", "max_vector", "contains",
)

# (owner, attribute, span name). Order matters where one wrapper calls
# another: bigstep's `_solve` and `_pm_run` call the wrappers installed at
# `paritysets.zielonka._solve` and `paritysets.measure._pm_run`.
PATCH_POINTS = (
    ("paritysets.cli", "main", "cli.main"),
    ("paritysets.cli", "_run", "cli.run"),
    ("paritysets.cli", "parse_pgsolver", "pgsolver.parse"),
    ("paritysets.cli", "emit_solution", "pgsolver.emit"),
    ("paritysets.pgsolver", "build_game", "game.build"),
    ("paritysets.zielonka", "normalize_priorities", "game.normalize"),
    ("paritysets.measure", "normalize_priorities", "game.normalize"),
    ("paritysets.bigstep", "normalize_priorities", "game.normalize"),
    ("paritysets.cli", "classic_parity", "zielonka.classic_parity"),
    ("paritysets.cli", "solve_pm_symbolic", "measure.solve_pm_symbolic"),
    ("paritysets.cli", "symbolic_big_step", "bigstep.symbolic_big_step"),
    ("paritysets.zielonka", "_solve", "zielonka.solve"),
    ("paritysets.bigstep", "_solve", None),
    ("paritysets.zielonka", "_top_priority", "zielonka.top_priority"),
    ("paritysets.zielonka", "attractor", "zielonka.attractor"),
    ("paritysets.measure", "_pm_run", "measure.pm_run"),
    ("paritysets.bigstep", "_pm_run", "bigstep.dominion"),
    ("paritysets.measure.LinearSpaceState", "_reconstruct", "measure.reconstruct"),
    ("paritysets.measure.LinearSpaceState", "commit", "measure.commit"),
    ("paritysets.sets.SetSpace", "__init__", "sets.space.init"),
    *(("paritysets.sets.SetSpace", op, "sets.space." + op) for op in SPACE_OPS),
    ("paritysets.sets._BitsBackend", "__init__", "sets.bits.init"),
    ("paritysets.sets._BitsBackend", "from_ids", "sets.bits.from_ids"),
    ("paritysets.sets._BitsBackend", "cpre", "sets.bits.cpre"),
    ("paritysets.sets._BitsBackend", "pre", "sets.bits.pre"),
    *(("paritysets.sets._BitsBackend", op, "sets.bits." + op) for op in BASIC_KERNEL),
    *(("paritysets.ranks.RankDomain", m, "ranks." + m) for m in RANK_METHODS),
)


def resolve(owner: str):
    """The module or class a patch point lives in."""
    if owner.count(".") == 1:
        return importlib.import_module(owner)
    module, _, cls = owner.rpartition(".")
    return getattr(importlib.import_module(module), cls)


def current(owner: str, attr: str):
    """What callers see at a patch point right now."""
    holder = resolve(owner)
    return holder.__dict__[attr] if isinstance(holder, type) else getattr(holder, attr)


def counted_ops(c) -> int:
    """Every operation `OpCounters` counts."""
    return c.basic_total + c.pre_ops + c.cpre_ops


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One game's spans, column-wise.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        # Folded over every game decided so far.
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.tally: Counter = Counter()
        self.peak_live_sets = 0
        self.max_depth = 0
        self.games = 0
        self._saved: list[tuple[object, str, object]] = []
        # Bookkeeping reads domain sizes through the original method, so it
        # adds no calls to the traced rank layer.
        self._domain_size = current("paritysets.ranks.RankDomain", "size")
        self.span_cost_s = 0.0

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name: str, before=None, after=None):
        """A wrapper recording one span per call of fn. `before(args)` runs
        ahead of the call and its value goes to `after(token, args, result)`;
        both run outside the span, in the caller's time."""
        nid = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(token, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> None:
        """Measure the bookkeeping a traced call costs outside its own span."""
        def noop():
            pass

        traced = self.span(noop, "calibration")
        clock = time.perf_counter
        best = None
        for _ in range(repeats):
            t = clock()
            for _ in range(calls):
                noop()
            plain = clock() - t
            t = clock()
            for _ in range(calls):
                traced()
            wrapped = clock() - t
            inside = sum(self.span_end) - sum(self.span_start)
            self._drop_spans()
            cost = (wrapped - plain - inside) / calls
            best = cost if best is None else min(best, cost)
        self.span_cost_s = max(0.0, best)

    def _drop_spans(self) -> None:
        for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del column[:]
        del self._stack[1:]

    def end_game(self) -> None:
        """Fold the spans of the game just decided and drop them."""
        count = len(self.span_name)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        cost = self.span_cost_s
        covered = [0.0] * count
        for i in range(count):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i] + cost
        names = self.names
        for i in range(count):
            name = names[self.span_name[i]]
            dur = ends[i] - starts[i]
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - covered[i]
        self._drop_spans()
        self.games += 1

    # -- counts read around calls ----------------------------------------------

    def _hooks(self, name: str):
        tally = self.tally
        size = self._domain_size
        if name == "cli.run":
            def after(_, args, report):
                c = report.counters
                for key in ("unions", "intersections", "differences", "containment_tests",
                            "equality_tests", "cpre_ops"):
                    tally["sets." + key] += getattr(c, key)
                tally["sets.basic_ops"] += c.basic_total
                tally["ops"] += counted_ops(c)
                self.peak_live_sets = max(self.peak_live_sets, c.peak_live_sets)
            return None, after
        if name == "pgsolver.parse":
            def before(args):
                tally["parse_bytes"] += len(args[0])
            return before, None
        if name == "measure.pm_run":
            def after(_, args, run):
                tally["iterations"] += run.iterations
                tally["domain_ranks"] += size(run.domain)
            return None, after
        if name == "bigstep.dominion":
            def before(args):
                return args[0].counters.cpre_ops
            def after(cpre0, args, run):
                tally["dominion_runs"] += 1
                tally["dominion_hits"] += run.winning.count() > 0
                tally["dominion_ranks"] += size(run.domain)
                tally["dominion_cpre"] += args[0].counters.cpre_ops - cpre0
            return before, after
        if name == "measure.reconstruct":
            return self._ops_delta(lambda args: args[0].space.counters, "reconstruct_ops")
        if name == "zielonka.top_priority":
            return self._ops_delta(lambda args: args[0].counters, "top_priority_ops")
        if name == "zielonka.attractor":
            def before(args):
                return args[2].space.counters.cpre_ops
            def after(cpre0, args, result):
                tally["attractor_rounds"] += args[2].space.counters.cpre_ops - cpre0
            return before, after
        if name == "zielonka.solve":
            def before(args):
                if args[3] > self.max_depth:
                    self.max_depth = args[3]
            return before, None
        if name == "sets.bits.cpre":
            def before(args):
                tally["cpre_view_vertices"] += args[3].bit_count()
            return before, None
        return None, None

    def _ops_delta(self, counters_of, key: str):
        tally = self.tally

        def before(args):
            return counted_ops(counters_of(args))

        def after(ops0, args, result):
            tally[key] += counted_ops(counters_of(args)) - ops0
        return before, after

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in PATCH_POINTS:
            holder = resolve(owner)
            original = current(owner, attr)
            if (owner, attr) == ("paritysets.bigstep", "_solve"):
                wrapper = self._bigstep_solve()
            elif (owner, attr) == ("paritysets.bigstep", "_pm_run"):
                wrapper = self.span(current("paritysets.measure", "_pm_run"), name,
                                    *self._hooks(name))
            else:
                wrapper = self.span(original, name, *self._hooks(name))
            self._saved.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def _bigstep_solve(self):
        """bigstep calls zielonka's `_solve` with its dominion hook, a closure
        no caller can reach by name; wrap the hook as it passes through."""
        traced_solve = current("paritysets.zielonka", "_solve")

        def solve(game, space, live, depth, max_depth, record, hook=None, sink=None):
            if hook is not None:
                hook = self.span(hook, "bigstep.hook")
            return traced_solve(game, space, live, depth, max_depth, record, hook, sink)

        solve.__wrapped__ = traced_solve
        return solve

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    # -- metrics -------------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each per traced verdict unless it is a peak, a
        share or a rate."""
        games = max(self.games, 1)
        calls, total, own, tally = self.calls, self.total_s, self.self_s, self.tally

        def per(x):
            return x / games

        def share(a, b):
            return a / b if b else 0.0

        def names(prefix):
            return [n for n in calls if n.startswith(prefix)]

        space_ops = [n for n in names("sets.space.") if n != "sets.space.init"]
        space_self = sum(own[n] for n in names("sets.space."))
        rank_names = names("ranks.")
        cpre_s = total["sets.bits.cpre"]
        parse_self = own["pgsolver.parse"]
        out = {
            "sets.bits.cpre_s": (per(cpre_s), "s"),
            "sets.bits.cpre_calls": (per(calls["sets.bits.cpre"]), "count"),
            "sets.bits.cpre_view_vertices": (per(tally["cpre_view_vertices"]), "count"),
            "sets.bits.cpre_ns_per_view_vertex": (
                1e9 * share(cpre_s, tally["cpre_view_vertices"]), "ns"),
            "sets.bits.basic_s": (per(sum(total["sets.bits." + op] for op in BASIC_KERNEL)), "s"),
            "sets.bits.init_s": (per(total["sets.bits.init"] + total["sets.bits.from_ids"]), "s"),
            "sets.space.self_s": (per(space_self), "s"),
            "sets.space.ns_per_op": (
                1e9 * share(space_self, sum(calls[n] for n in space_ops)), "ns"),
        }
        for key in ("unions", "intersections", "differences", "containment_tests",
                    "equality_tests", "cpre_ops", "basic_ops"):
            out["sets." + key] = (per(tally["sets." + key]), "count")
        out["sets.peak_live_sets"] = (self.peak_live_sets, "count")
        out.update({
            "ranks.calls": (per(sum(calls[n] for n in rank_names)), "count"),
            "ranks.self_s": (per(sum(own[n] for n in rank_names)), "s"),
            "measure.iterations": (per(tally["iterations"]), "count"),
            "measure.domain_ranks": (per(tally["domain_ranks"]), "count"),
            "measure.pm_run_self_s": (
                per(own["measure.pm_run"] + own["measure.solve_pm_symbolic"]), "s"),
            "measure.reconstruct_calls": (per(calls["measure.reconstruct"]), "count"),
            "measure.reconstruct_s": (per(total["measure.reconstruct"]), "s"),
            "measure.reconstruct_ops_share": (
                share(tally["reconstruct_ops"], tally["ops"]), "ratio"),
            "measure.commit_calls": (per(calls["measure.commit"]), "count"),
            "measure.commit_s": (per(total["measure.commit"]), "s"),
            "zielonka.solve_calls": (per(calls["zielonka.solve"]), "count"),
            "zielonka.max_depth": (self.max_depth, "count"),
            "zielonka.solve_self_s": (
                per(own["zielonka.solve"] + own["zielonka.classic_parity"]), "s"),
            "zielonka.top_priority_s": (per(total["zielonka.top_priority"]), "s"),
            "zielonka.top_priority_ops_share": (
                share(tally["top_priority_ops"], tally["ops"]), "ratio"),
            "zielonka.attractor_calls": (per(calls["zielonka.attractor"]), "count"),
            "zielonka.attractor_rounds": (per(tally["attractor_rounds"]), "count"),
            "zielonka.attractor_s": (per(total["zielonka.attractor"]), "s"),
            "bigstep.dominion_runs": (per(tally["dominion_runs"]), "count"),
            "bigstep.dominion_hit_ratio": (
                share(tally["dominion_hits"], tally["dominion_runs"]), "ratio"),
            "bigstep.dominion_domain_ranks": (per(tally["dominion_ranks"]), "count"),
            "bigstep.dominion_s": (per(total["bigstep.dominion"]), "s"),
            "bigstep.dominion_cpre_share": (
                share(tally["dominion_cpre"], tally["sets.cpre_ops"]), "ratio"),
            "bigstep.self_s": (per(own["bigstep.symbolic_big_step"] + own["bigstep.hook"]
                                   + own["bigstep.dominion"]), "s"),
            "pgsolver.parse_s": (per(parse_self), "s"),
            "pgsolver.parse_bytes_per_s": (share(tally["parse_bytes"], parse_self), "B/s"),
            "pgsolver.emit_s": (per(total["pgsolver.emit"]), "s"),
            "game.normalize_s": (per(total["game.normalize"]), "s"),
            "game.build_s": (per(total["game.build"]), "s"),
            "cli.self_s": (per(own["cli.main"] + own["cli.run"]), "s"),
            "trace.overhead_s": (overhead_s, "s"),
        })
        return out
