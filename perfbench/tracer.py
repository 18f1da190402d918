"""Span tracing around the package's public functions, from outside it.

`Tracer.install()` swaps each function in `TRACED` for a wrapper in every
loaded `git_topo` module that holds it, so the real CLI call structure
is recorded without touching the package: the command span
(`cli.main`) contains harness spans, which contain family spans, which
contain `linalg.int_rank`, and so on.  Each span is five integers in
one flat array (name, start ns, end ns, parent span, command id), kept
in memory and written out by `dump()`.  `layer_metrics()` turns spans
into self times and per-layer metrics.

Work the tracer itself does inside a span (the input-size probe before
`int_rank`) is recorded as a `trace.probe` child span, so it is excluded
from every layer's self time.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from array import array

FIELDS = 5

# (defining module, attribute).  The span is named after the module
# below git_topo and the attribute.
TRACED = (
    ("git_topo.harness", "draw_instance"),
    ("git_topo.harness", "sample_generic_points"),
    ("git_topo.harness", "sample_path_stability"),
    ("git_topo.harness", "kronecker_oracle_check"),
    ("git_topo.harness", "detect_constructed_degenerates"),
    ("git_topo.families.control", "controllability_rank_ints"),
    ("git_topo.families.control", "enumerate_strata"),
    ("git_topo.families.dag", "parent_rank_ints"),
    ("git_topo.families.dag", "dag_status"),
    ("git_topo.families.dag", "dag_stabilize"),
    ("git_topo.families.dag", "dag_solve_mle"),
    ("git_topo.families.dag", "enumerate_strata"),
    ("git_topo.families.quiver", "quiver_thin_status"),
    ("git_topo.families.quiver", "enumerate_strata"),
    ("git_topo.linalg", "int_rank"),
    ("git_topo.linalg", "column_pivots"),
    ("git_topo.linalg", "nullspace"),
    ("git_topo.linalg", "solve_square"),
    ("git_topo.groups", "orbit_dim"),
    ("git_topo.connectivity", "summarize_strata"),
    ("git_topo.reports", "render_connectivity_text"),
    ("git_topo.reports", "render_homotopy_text"),
    ("git_topo.reports", "render_status_text"),
    ("git_topo.reports", "render_harness_text"),
    ("git_topo.serialize", "instance_from_json"),
    ("git_topo.serialize", "instance_to_json"),
    ("git_topo.serialize", "status_to_json"),
    ("git_topo.serialize", "report_to_json"),
    ("git_topo.serialize", "harness_report_to_json"),
    ("git_topo.serialize", "canonical_dumps"),
)

ENCODE = (
    "serialize.instance_to_json",
    "serialize.status_to_json",
    "serialize.report_to_json",
    "serialize.harness_report_to_json",
    "serialize.canonical_dumps",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self.stack: list[int] = []
        self.command = -1
        self.missing: list[str] = []
        self._restore: list[tuple] = []
        self._probe_id = self._name_id("trace.probe")
        # Counts taken at the layer boundaries.
        self.rank_bits = 0
        self.rank_full = 0
        self.strata_kept = 0
        self.strata_candidates = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, before=None, after=None):
        """fn with one span per call; before/after see (args, result)."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if before is not None:
                probe = len(spans) // FIELDS
                spans.extend((self._probe_id, clock(), 0, parent, self.command))
                before(args)
                spans[probe * FIELDS + 2] = clock()
            index = len(spans) // FIELDS
            spans.extend((nid, 0, 0, parent, self.command))
            stack.append(index)
            spans[index * FIELDS + 1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index * FIELDS + 2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    # Probes for the exact counts.

    def _rank_input(self, args) -> None:
        bits = max((abs(x).bit_length() for row in args[0] for x in row), default=0)
        self.rank_bits = max(self.rank_bits, bits)

    def _rank_result(self, args, rank: int) -> None:
        data = args[0]
        self.rank_full += rank == min(len(data), len(data[0]) if data else 0)

    def _strata_result(self, args, strata) -> None:
        self.strata_kept += len(strata)
        self.strata_candidates += math.prod(d + 1 for d in args[0].dim_vector) - 2

    def _replace(self, original, wrapped) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "git_topo" or name.startswith("git_topo.")):
                continue
            space = vars(module)
            for key in [k for k, v in space.items() if v is original]:
                self._restore.append((space, key, original))
                space[key] = wrapped

    def install(self) -> None:
        for module_name, attr in TRACED:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            span = f"{module_name[len('git_topo.'):]}.{attr}"
            hooks = {}
            if span == "linalg.int_rank":
                hooks = {"before": self._rank_input, "after": self._rank_result}
            elif span == "families.quiver.enumerate_strata":
                hooks = {"after": self._strata_result}
            self._replace(original, self.wrap(original, span, **hooks))
        rng = sys.modules.get("git_topo.rng")
        base = getattr(rng, "CounterRng", None)
        if base is None:
            self.missing.append("git_topo.rng.CounterRng")
            return
        traced_rng = type("CounterRng", (base,), {
            "__init__": self.wrap(base.__init__, "rng.CounterRng"),
            "int_between": self.wrap(base.int_between, "rng.int_between"),
        })
        self._replace(base, traced_rng)

    def uninstall(self) -> None:
        for space, key, original in reversed(self._restore):
            space[key] = original
        self._restore.clear()

    def dump(self, stem: str) -> None:
        """Write the spans (raw int64, FIELDS per span) and their legend."""
        with open(stem + ".bin", "wb") as fh:
            self.spans.tofile(fh)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "command"],
                       "names": self.names, "missing": self.missing}, fh)

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        total_spans = len(spans) // FIELDS
        child = array("q", bytes(8 * total_spans))
        for i in range(total_spans):
            parent = spans[i * FIELDS + 3]
            if parent >= 0:
                child[parent] += spans[i * FIELDS + 2] - spans[i * FIELDS + 1]
        count = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for i in range(total_spans):
            nid = spans[i * FIELDS]
            dur = spans[i * FIELDS + 2] - spans[i * FIELDS + 1]
            count[nid] += 1
            total[nid] += dur
            own[nid] += dur - child[i]

        def pick(table, names):
            return sum(table[self._ids[n]] for n in names if n in self._ids)

        def per_call(table, names, scale, calls=None):
            n = pick(count, names) if calls is None else calls
            return pick(table, names) / n / scale if n else 0.0

        def like(prefix):
            return [n for n in self.names if n.startswith(prefix)]

        us, ms = 1e3, 1e6
        draws = pick(count, ["rng.int_between"])
        rank_calls = pick(count, ["linalg.int_rank"])
        return {
            "rng.draw_us": per_call(own, ["rng.CounterRng", "rng.int_between"], us, draws),
            "rng.draws": draws,
            "harness.self_ms": per_call(own, like("harness."), ms),
            "families.control.rank_us": per_call(
                total, ["families.control.controllability_rank_ints"], us),
            "families.control.krylov_us": per_call(
                own, ["families.control.controllability_rank_ints"], us),
            "families.dag.rank_us": per_call(
                total, ["families.dag.parent_rank_ints", "families.dag.dag_status"], us),
            "families.dag.stabilize_ms": per_call(total, ["families.dag.dag_stabilize"], ms),
            "families.dag.mle_ms": per_call(total, ["families.dag.dag_solve_mle"], ms),
            "families.quiver.scan_us": per_call(
                total, ["families.quiver.quiver_thin_status"], us),
            "families.quiver.strata_ms": per_call(
                total, ["families.quiver.enumerate_strata"], ms),
            "families.quiver.strata_kept_frac": (
                self.strata_kept / self.strata_candidates if self.strata_candidates else 0.0),
            "linalg.int_rank_us": per_call(total, ["linalg.int_rank"], us),
            "linalg.int_rank.calls": rank_calls,
            "linalg.int_rank.max_input_bits": self.rank_bits,
            "linalg.int_rank.full_rank_frac": (
                self.rank_full / rank_calls if rank_calls else 0.0),
            "linalg.rref_ms": per_call(
                total, ["linalg.column_pivots", "linalg.nullspace", "linalg.solve_square"],
                ms),
            "groups.orbit_dim_us": per_call(total, ["groups.orbit_dim"], us),
            "connectivity.summarize_ms": per_call(
                total, ["connectivity.summarize_strata"], ms),
            "reports.render_ms": per_call(total, like("reports.render_"), ms),
            "serialize.decode_us": per_call(total, ["serialize.instance_from_json"], us),
            "serialize.encode_ms": per_call(
                own, ENCODE, ms, pick(count, ["serialize.canonical_dumps"])),
            "cli.self_ms": per_call(own, ["cli.main"], ms),
        }
