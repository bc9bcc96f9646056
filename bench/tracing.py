"""Per-layer tracing from outside the library.

Every public function named in LAYERS is replaced, at every module
attribute that holds it, by a wrapper that records a span (id, parent
id, operation id, name, start, end) and the counts of work it was
handed.  Callers import these names directly (``from .trigraph import
contract``), so patching only the defining module would miss most
calls; the wrapper is therefore installed wherever the function object
is bound.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from twinwidth import (cli, compose, dpsolve, gadgets, io, kernel, modular,
                       oracle, recognize, sequence, trigraph)


def _n(x) -> int:
    return len(x.vertices)


def _steps(args) -> int:
    return len(args[1].steps)


def _kernel_counts(args, result) -> Dict[str, float]:
    return {"kernel.deletions": len(result.trace),
            "kernel.trivial_no": int(result.trivial_no),
            "kernel.calls": 1}


# (module, attribute, metric prefix, counts from (args, result))
LAYERS: List[Tuple[object, str, str, Optional[Callable]]] = [
    (trigraph, "contract", "trigraph.contract",
     lambda a, r: {"trigraph.contract.vertices_copied": _n(a[0])}),
    (trigraph, "quotient", "trigraph.quotient", None),
    (trigraph.Graph, "induced", "trigraph.Graph.induced",
     lambda a, r: {"trigraph.Graph.induced.vertices": _n(r)}),
    (trigraph.Graph, "complement", "trigraph.Graph.complement",
     lambda a, r: {"trigraph.Graph.complement.vertices": _n(a[0])}),
    (sequence, "verify", "sequence.verify",
     lambda a, r: {"sequence.verify.steps": _steps(a)}),
    (sequence, "final_trigraph", "sequence.final_trigraph",
     lambda a, r: {"sequence.final_trigraph.steps": _steps(a)}),
    (sequence, "replay", "sequence.replay",
     lambda a, r: {"sequence.replay.steps": _steps(a)}),
    (modular, "maximal_modular_partition", "modular.maximal_modular_partition",
     lambda a, r: {"modular.maximal_modular_partition.vertices": _n(a[0])}),
    (modular, "trace_classes", "modular.trace_classes", None),
    (recognize, "recognize_tww0", "recognize.recognize_tww0", None),
    (recognize, "recognize_tww1", "recognize.recognize_tww1", None),
    (recognize, "safe_contractions", "recognize.safe_contractions", None),
    (gadgets, "reduce_3sat", "gadgets.reduce_3sat", None),
    (gadgets, "validate_instance", "gadgets.validate_instance", None),
    (gadgets, "grid_subdivision_collapse", "gadgets.grid_subdivision_collapse", None),
    (compose, "or_cross_compose", "compose.or_cross_compose", None),
    (dpsolve, "min_ds_dp", "dpsolve.min_ds_dp", None),
    (dpsolve, "min_vc_dp", "dpsolve.min_vc_dp", None),
    (dpsolve, "check_component_bound", "dpsolve.check_component_bound", None),
    (oracle, "exact_twinwidth", "oracle.exact_twinwidth", None),
    (oracle, "twinwidth_at_most", "oracle.twinwidth_at_most", None),
    (oracle, "min_connected_vertex_cover", "oracle.min_connected_vertex_cover", None),
    (oracle, "min_capacitated_vc", "oracle.min_capacitated_vc", None),
    (oracle, "min_dominating_set", "oracle.min_dominating_set", None),
    (kernel, "cvc_kernel_quadratic", "kernel.cvc_kernel_quadratic", _kernel_counts),
    (kernel, "cvc_kernel_improved", "kernel.cvc_kernel_improved", _kernel_counts),
    (kernel, "capvc_kernel", "kernel.capvc_kernel", _kernel_counts),
    (cli, "main", "cli.main", None),
]
# every parser and writer of the io module reports as one io layer
for _name in sorted(vars(io)):
    if _name.startswith(("parse_", "write_")) and callable(getattr(io, _name)):
        LAYERS.append((io, _name, "io." + _name.split("_")[0],
                       (lambda a, r: {"io.bytes_written": len(r.encode())})
                       if _name.startswith("write_") else None))

# metrics reported per traced operation, in the order they are printed
CALLS = ["trigraph.contract", "trigraph.Graph.induced", "trigraph.Graph.complement",
         "sequence.verify", "sequence.final_trigraph", "sequence.replay",
         "modular.maximal_modular_partition", "recognize.recognize_tww0",
         "recognize.recognize_tww1", "recognize.safe_contractions",
         "dpsolve.min_ds_dp", "dpsolve.min_vc_dp", "dpsolve.check_component_bound",
         "oracle.twinwidth_at_most"]
SELF = ["trigraph.contract", "trigraph.quotient", "sequence.verify",
        "sequence.final_trigraph", "sequence.replay",
        "modular.maximal_modular_partition", "modular.trace_classes",
        "recognize.recognize_tww0", "recognize.recognize_tww1",
        "recognize.safe_contractions", "gadgets.reduce_3sat",
        "gadgets.validate_instance", "gadgets.grid_subdivision_collapse",
        "compose.or_cross_compose", "dpsolve.min_ds_dp", "dpsolve.min_vc_dp",
        "dpsolve.check_component_bound", "oracle.exact_twinwidth",
        "oracle.min_connected_vertex_cover", "oracle.min_capacitated_vc",
        "oracle.min_dominating_set", "oracle.twinwidth_at_most",
        "kernel.cvc_kernel_quadratic",
        "kernel.cvc_kernel_improved", "kernel.capvc_kernel", "io.parse", "io.write",
        "cli.main"]
COUNTS = ["trigraph.contract.vertices_copied", "trigraph.Graph.induced.vertices",
          "trigraph.Graph.complement.vertices", "sequence.verify.steps",
          "sequence.final_trigraph.steps", "sequence.replay.steps",
          "modular.maximal_modular_partition.vertices", "kernel.deletions",
          "io.bytes_written"]
DERIVED = ["sequence.replays_per_op", "kernel.trivial_no_share", "trace.overhead_ratio"]

# per workload, the per-layer metrics that must be non-zero there: a
# zero means a binding site was missed or the workload drifted
DRIVEN: Dict[str, List[str]] = {
    "pipeline": ["trigraph.contract.calls", "trigraph.contract.vertices_copied",
                 "sequence.verify.calls", "sequence.final_trigraph.calls",
                 "sequence.verify.steps", "sequence.replays_per_op",
                 "gadgets.reduce_3sat.self_s", "gadgets.validate_instance.self_s",
                 "gadgets.grid_subdivision_collapse.self_s",
                 "compose.or_cross_compose.self_s", "trigraph.quotient.self_s",
                 "io.parse.self_s", "io.write.self_s", "io.bytes_written",
                 "cli.main.self_s"],
    "recognize": ["trigraph.contract.calls", "trigraph.Graph.induced.calls",
                  "trigraph.Graph.complement.calls", "trigraph.Graph.induced.vertices",
                  "modular.maximal_modular_partition.calls",
                  "modular.maximal_modular_partition.vertices",
                  "recognize.recognize_tww0.calls", "recognize.recognize_tww1.calls",
                  "recognize.safe_contractions.calls", "sequence.replay.calls"],
    "solve": ["trigraph.contract.calls", "dpsolve.min_ds_dp.calls",
              "dpsolve.min_vc_dp.calls", "dpsolve.min_ds_dp.self_s",
              "io.parse.self_s", "cli.main.self_s"],
    "crosscheck": ["recognize.recognize_tww1.calls", "modular.maximal_modular_partition.calls",
                   "oracle.twinwidth_at_most.calls", "oracle.exact_twinwidth.self_s",
                   "oracle.min_connected_vertex_cover.self_s",
                   "oracle.min_capacitated_vc.self_s",
                   "kernel.cvc_kernel_quadratic.self_s", "kernel.cvc_kernel_improved.self_s",
                   "kernel.capvc_kernel.self_s", "modular.trace_classes.self_s",
                   "dpsolve.min_ds_dp.calls", "dpsolve.min_vc_dp.calls",
                   "dpsolve.check_component_bound.calls"],
}


def unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s/op"
    if name == "io.bytes_written":
        return "bytes/op"
    if name in ("kernel.trivial_no_share", "trace.overhead_ratio") or "growth_exponent" in name:
        return "1"
    return "count/op"


class Tracer:
    """Installs the wrappers and keeps the spans of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: List[int] = []
        self._sites: List[Tuple[object, str, object, object]] = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "twinwidth" or name.startswith("twinwidth.")) and m is not None]
        for owner, attr, prefix, count in LAYERS:
            original = vars(owner)[attr]
            wrapped = self._wrap(original, prefix, count)
            if isinstance(owner, type):
                self._sites.append((owner, attr, original, wrapped))
                continue
            for mod in modules:
                for name, value in vars(mod).items():
                    if value is original:
                        self._sites.append((mod, name, original, wrapped))

    def _wrap(self, fn, prefix: str, count: Optional[Callable]):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.op, prefix, start, end)
            if count is not None:
                for key, value in count(args, result).items():
                    counts[key] += value
            return result
        return traced

    def install(self) -> None:
        """Bind the wrappers at every site that holds a traced function."""
        for owner, name, _, wrapped in self._sites:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._sites:
            setattr(owner, name, original)

    def per_layer(self, ops: int) -> Dict[str, float]:
        """Counts and self times per traced operation."""
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        child: Dict[int, float] = defaultdict(float)
        for sid, parent, _, name, start, end in reversed(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[sid]
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for name in CALLS:
            out[name + ".calls"] = calls[name] / ops
        for name in SELF:
            out[name + ".self_s"] = self_s[name] / ops
        for name in COUNTS:
            out[name] = self.counts[name] / ops
        replays = sum(calls[n] for n in ("sequence.verify", "sequence.final_trigraph",
                                         "sequence.replay"))
        out["sequence.replays_per_op"] = replays / ops
        kernel_calls = self.counts["kernel.calls"]
        out["kernel.trivial_no_share"] = (self.counts["kernel.trivial_no"] / kernel_calls
                                          if kernel_calls else 0.0)
        return out

    def calls_by_op(self, names: List[str]) -> Dict[int, Dict[str, int]]:
        out: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for _, _, op, name, _, _ in self.spans:
            if name in names:
                out[op][name] += 1
        return out

    def write(self, path: str, header: Dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write('{"id":%d,"parent":%d,"op":%d,"name":"%s","start":%.9f,"end":%.9f}\n'
                         % (sid, parent, op, name, start, end))
