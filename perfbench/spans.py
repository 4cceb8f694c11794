"""Span tracing of the package's layers, applied from outside the package.

A layer is a module of `src/cantorenv/`.  `Tracer.install` wraps the
public functions and methods listed in SPANS wherever a module of the
package binds them (a function imported into three modules is patched in
all three, and class aliases such as `ClopenSet.__and__` are patched with
the method they alias).  Every call records a span: name, start, end,
parent span and job id, appended to flat arrays in memory and written out
by `write`.  Self time, the span minus its child spans, is summed per span
name as the spans close.  `metrics` folds spans and counters into the
per-layer metrics named in LAYER_METRICS.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

# span name -> (module, attribute or Class.method, ...)
SPANS = {
    "cantor.normalize_words": ("cantorenv.cantor", "normalize_words"),
    "cantor.clopen_ops": ("cantorenv.cantor", "ClopenSet.intersect",
                          "ClopenSet.complement", "ClopenSet.subset_of",
                          "ClopenSet.contains_word", "ClopenSet.contains_point"),
    "prefix_map.compose": ("cantorenv.prefix_map", "compose"),
    "prefix_map.image_set": ("cantorenv.prefix_map", "PrefixMap.image_set"),
    "action.h": ("cantorenv.action", "ZPartialAction.h"),
    "action.domain": ("cantorenv.action", "ZPartialAction.domain"),
    "action.axioms_check": ("cantorenv.action", "axioms_check"),
    "cells.adapted_depth": ("cantorenv.cells", "adapted_depth"),
    "cells.cell_partition": ("cantorenv.cells", "cell_partition"),
    "filtration.default_schedule": ("cantorenv.filtration", "default_schedule"),
    "filtration.truncated_relation": ("cantorenv.filtration", "truncated_relation"),
    "filtration.bratteli_build": ("cantorenv.filtration", "bratteli_build"),
    "filtration.export": ("cantorenv.filtration", "export"),
    "functions.compose_with_map": ("cantorenv.functions", "compose_with_map"),
    "functions.pwc_arith": ("cantorenv.functions", "PiecewiseConstant.__add__",
                            "PiecewiseConstant.__neg__", "PiecewiseConstant.__sub__",
                            "PiecewiseConstant.__mul__", "PiecewiseConstant.scale",
                            "PiecewiseConstant.conj", "PiecewiseConstant.restrict"),
    "algebra.convolve": ("cantorenv.algebra", "convolve"),
    "algebra.kernel_multiply": ("cantorenv.algebra", "kernel_multiply"),
    "algebra.validate": ("cantorenv.algebra", "validate_blocks", "validate_entries"),
    "verify.isomorphism_suite": ("cantorenv.verify", "isomorphism_suite"),
    "verify.equivariance_sign": ("cantorenv.verify", "equivariance_sign"),
    "sampling": ("cantorenv.sampling", "Sampler.antichain", "Sampler.prefix_map",
                 "Sampler.word", "Sampler.point", "Sampler.point_in",
                 "Sampler.scalar", "Sampler.pwc", "Sampler.groupoid_function",
                 "Sampler.germ", "Sampler.related_triple", "Sampler.arrow_triples",
                 "Sampler.enumeration_instance"),
    "envelope.hausdorff_decide": ("cantorenv.envelope", "hausdorff_decide"),
    "envelope.etale_probe": ("cantorenv.envelope", "etale_probe"),
    "envelope.related": ("cantorenv.envelope", "related"),
    "cli.main": ("cantorenv.cli", "main"),
}

# per-layer metric -> unit; the names BENCHMARK.json lists under per_layer
LAYER_METRICS = {
    "cantor.normalize_words.calls": "count",
    "cantor.normalize_words.words_in": "count",
    "cantor.normalize_words.words_out": "count",
    "cantor.normalize_words.self_s": "s",
    "cantor.clopen_ops.calls": "count",
    "cantor.clopen_ops.self_s": "s",
    "prefix_map.compose.calls": "count",
    "prefix_map.compose.self_s": "s",
    "prefix_map.image_set.calls": "count",
    "prefix_map.image_set.self_s": "s",
    "action.domain.calls": "count",
    "action.domain.distinct": "count",
    "action.domain.new_ratio": "ratio",
    "action.domain.self_s": "s",
    "action.h.calls": "count",
    "action.axioms_check.self_s": "s",
    "cells.cell_partition.calls": "count",
    "cells.cell_partition.units": "count",
    "cells.cell_partition.transitivity_pairs": "count",
    "cells.cell_partition.self_s": "s",
    "cells.adapted_depth.self_s": "s",
    "filtration.default_schedule.self_s": "s",
    "filtration.truncated_relation.self_s": "s",
    "filtration.bratteli_build.self_s": "s",
    "filtration.export.self_s": "s",
    "filtration.export.bytes": "bytes",
    "functions.compose_with_map.calls": "count",
    "functions.compose_with_map.self_s": "s",
    "functions.pwc_arith.calls": "count",
    "functions.pwc_arith.self_s": "s",
    "algebra.convolve.calls": "count",
    "algebra.convolve.self_s": "s",
    "algebra.kernel_multiply.calls": "count",
    "algebra.kernel_multiply.self_s": "s",
    "algebra.validate.calls": "count",
    "algebra.validate.self_s": "s",
    "verify.checked": "count",
    "sampling.self_s": "s",
    "envelope.hausdorff_decide.calls": "count",
    "envelope.hausdorff_decide.self_s": "s",
    "envelope.etale_probe.calls": "count",
    "envelope.etale_probe.self_s": "s",
    "envelope.related.calls": "count",
    "envelope.related.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.main.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def _domain_key(args, kwargs):
    action, t = args[0], args[1]
    level = args[2] if len(args) > 2 else kwargs.get("level")
    return (action.generator, action.counts, None if action.clopen else level, t)


class Tracer:
    """Records spans of one traced pass; one job at a time, one thread."""

    def __init__(self):
        self.names = ["job"]
        self.name_of = array("H")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.domain_keys = set()
        self.job_id = -1
        self._stack = []  # [span index, time covered by child spans]

    # -- spans -------------------------------------------------------------

    def _open(self, nid: int) -> list:
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.job_of.append(self.job_id)
        self.start.append(0.0)
        self.end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, nid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        idx = frame[0]
        self.start[idx] = t0
        self.end[idx] = t1
        self.self_s[self.names[nid]] += (t1 - t0) - frame[1]
        if self._stack:
            self._stack[-1][1] += t1 - t0

    def job(self, job_id: int, fn, *args):
        """Run one job under a root span carrying its id."""
        self.job_id = job_id
        frame = self._open(0)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(frame, 0, t0, time.perf_counter())

    def note(self, name: str, value) -> None:
        self.counts[name] += value

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        after = _AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, nid, t0, clock())
            self.calls[name] += 1
            if after is not None:
                # the hook's own time counts as child time of the enclosing
                # span, so that no layer's self time holds tracer work
                t2 = clock()
                after(self, result, args, kwargs)
                if self._stack:
                    self._stack[-1][1] += clock() - t2
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every SPANS target in the loaded package."""
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "cantorenv" or n.startswith("cantorenv.")]
        for name, (module, *targets) in SPANS.items():
            for target in targets:
                owner = sys.modules[module]
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[attr]
                    wrapped = self._wrap(name, orig)
                    for key, val in list(vars(cls).items()):
                        if val is orig:
                            setattr(cls, key, wrapped)
                    continue
                orig = getattr(owner, target)
                wrapped = self._wrap(name, orig)
                for mod in package:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)

    # -- results -----------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict:
        c, s, n = self.calls, self.self_s, self.counts
        domain_calls = c["action.domain"]
        out = {
            "cantor.normalize_words.words_in": n["words_in"],
            "cantor.normalize_words.words_out": n["words_out"],
            "action.domain.distinct": len(self.domain_keys),
            "action.domain.new_ratio": (len(self.domain_keys) / domain_calls
                                        if domain_calls else 0.0),
            "cells.cell_partition.units": n["units"],
            "cells.cell_partition.transitivity_pairs": n["transitivity_pairs"],
            "filtration.export.bytes": n["export_bytes"],
            "verify.checked": n["checked"],
            "cli.main.stdout_bytes": n["cli.main.stdout_bytes"],
            "trace.overhead_ratio": overhead_ratio,
        }
        for metric in LAYER_METRICS:
            span, _, field = metric.rpartition(".")
            if metric in out:
                continue
            out[metric] = c[span] if field == "calls" else s[span]
        return {k: {"value": out[k], "unit": u} for k, u in LAYER_METRICS.items()}

    def write(self, path) -> None:
        """Spans as a JSON header plus one flat binary array per field."""
        header = {"names": self.names, "spans": len(self.name_of),
                  "fields": [["name", "H"], ["parent", "i"], ["job", "i"],
                             ["start", "d"], ["end", "d"]]}
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name_of, self.parent, self.job_of, self.start, self.end):
                arr.tofile(fh)


def _after_normalize(tr, result, args, kwargs):
    # every caller in the package passes a tuple; an unsized input is not counted
    tr.counts["words_in"] += len(args[0]) if hasattr(args[0], "__len__") else 0
    tr.counts["words_out"] += len(result)


def _after_domain(tr, result, args, kwargs):
    tr.domain_keys.add((tr.job_id, _domain_key(args, kwargs)))


def _after_partition(tr, result, args, kwargs):
    sizes = [len(cls) for cls in result.classes]
    tr.counts["units"] += sum(sizes)
    tr.counts["transitivity_pairs"] += sum(k * k for k in sizes)


def _after_export(tr, result, args, kwargs):
    tr.counts["export_bytes"] += len(result.encode())


def _after_isomorphism(tr, result, args, kwargs):
    tr.counts["checked"] += result.checked


def _after_equivariance(tr, result, args, kwargs):
    tr.counts["checked"] += result[1].checked


_AFTER = {
    "cantor.normalize_words": _after_normalize,
    "action.domain": _after_domain,
    "cells.cell_partition": _after_partition,
    "filtration.export": _after_export,
    "verify.isomorphism_suite": _after_isomorphism,
    "verify.equivariance_sign": _after_equivariance,
}
