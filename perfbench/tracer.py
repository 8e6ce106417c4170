"""Per-layer tracing of one `opgraphs` CLI command, from outside `src/`.

Run as a child process instead of `python -m opgraphs`:

    PYTHONPATH=src python3 perfbench/tracer.py TRACE_OUT.json CLI_ARGS...

It imports the package, replaces each function in `LAYERS` by a timing
wrapper in the defining module and in every `opgraphs` module that
imported it by name, runs `opgraphs.cli.main`, and writes the
aggregated spans to TRACE_OUT.json.  The exit code is the CLI's.

Spans are aggregated in memory rather than kept one by one: a census
makes about 400k wrapped calls.  For each layer the trace keeps the call
count, the inclusive time (outermost activation only, so recursion is
not counted twice), the self time (the span minus its direct child
spans) and the time spent under each calling layer.  The self times of
all layers add up to `cli.main`'s duration.  Generator functions are
timed while they run, across their iteration, not at the call that
creates them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter

# (layer, module, attribute path in the module).  Layers the
# program no longer defines are reported as absent; `unitary_group` and
# `assemble_matrix` are on the roadmap's deletion list.
LAYERS = (
    ("starfield.galois_field", "opgraphs.starfield", "galois_field"),
    ("linalg.rref", "opgraphs.linalg", "rref"),
    ("linalg.rank_of_rows", "opgraphs.linalg", "rank_of_rows"),
    ("enumeration.subspaces", "opgraphs.enumeration", "subspaces"),
    ("enumeration.subspaces_within", "opgraphs.enumeration", "subspaces_within"),
    ("spectral.enumerate_class", "opgraphs.spectral", "enumerate_class"),
    ("spectral.matrix", "opgraphs.spectral", "EigenFlag.matrix"),
    ("spectral.assemble_matrix", "opgraphs.spectral", "assemble_matrix"),
    ("spectral.fiber", "opgraphs.spectral", "fiber"),
    ("spectral.adjacent", "opgraphs.spectral", "adjacent"),
    ("spectral.classify_pairs", "opgraphs.spectral", "classify_pairs"),
    ("sampling.random_flag", "opgraphs.sampling", "random_flag"),
    ("graphs.build", "opgraphs.graphs", "LabeledGraph.build"),
    ("constructions.unitary_group", "opgraphs.constructions", "unitary_group"),
    ("constructions.unitary_generators", "opgraphs.constructions",
     "unitary_generators"),
    ("constructions.induced_subgroup", "opgraphs.constructions",
     "induced_subgroup"),
    ("autgroup.refine_colors", "opgraphs.autgroup", "refine_colors"),
    ("autgroup.automorphism_group", "opgraphs.autgroup", "automorphism_group"),
    ("lemmas.verify_move_equivalence", "opgraphs.lemmas",
     "verify_move_equivalence"),
    ("lemmas.verify_fiber_lift", "opgraphs.lemmas", "verify_fiber_lift"),
    ("counterexamples.find_rank_only_pair", "opgraphs.counterexamples",
     "find_rank_only_pair"),
    ("counterexamples.census_certificates", "opgraphs.counterexamples",
     "census_certificates"),
    ("counterexamples.verify_certificate", "opgraphs.counterexamples",
     "verify_certificate"),
    ("report.write_report", "opgraphs.report", "write_report"),
    ("cli.main", "opgraphs.cli", "main"),
)


def _count_census(counters, census):
    counters["spectral.pairs"] += census.total
    counters["spectral.adjacent_pairs"] += census.adjacent_count
    counters["spectral.rank2_pairs"] += (census.adjacent_count
                                         + census.rank_only_count)


def _count_chain(counters, chain):
    counters["autgroup.base_length"] += len(chain.base)
    counters["autgroup.strong_generators"] += len(chain.generators())


ROOT_CALLER = "(root)"    # the caller of the outermost span

# work counters read off a layer's return value
COUNTERS = {
    "spectral.classify_pairs": _count_census,
    "spectral.enumerate_class":
        lambda c, flags: c.update({"spectral.flags": len(flags)}),
    "graphs.build": lambda c, g: c.update({"graphs.edges": len(g.edges)}),
    "constructions.induced_subgroup":
        lambda c, r: c.update({"constructions.induced_generators": len(r[1])}),
    "autgroup.automorphism_group": _count_chain,
}


class Layer:
    """Aggregated spans of one wrapped function."""

    __slots__ = ("name", "calls", "depth", "inclusive", "self_time", "callers")

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.depth = 0          # open spans of this layer, for recursion
        self.inclusive = 0.0
        self.self_time = 0.0
        self.callers = {}       # caller layer -> span time under it


class Tracer:
    """Span aggregation for one process; single-threaded like the CLI."""

    def __init__(self):
        self.stack = []         # [Layer, time in child spans] per open span
        self.layers = {}
        self.counters = Counter()
        self.counter_errors = []
        self.raised = 0
        self.absent = []

    def _close(self, frame, start):
        span = time.perf_counter() - start
        layer = frame[0]
        self.stack.pop()
        layer.depth -= 1
        if not layer.depth:
            layer.inclusive += span
        layer.self_time += span - frame[1]
        caller = ROOT_CALLER
        if self.stack:
            self.stack[-1][1] += span
            caller = self.stack[-1][0].name
        layer.callers[caller] = layer.callers.get(caller, 0.0) + span

    def _count(self, name, counter, result):
        try:
            counter(self.counters, result)
        except (AttributeError, TypeError, IndexError) as e:
            self.counter_errors.append(f"{name}: {e!r}")

    def wrap(self, name, fn):
        layer = self.layers.setdefault(name, Layer(name))
        stack, clock, close = self.stack, time.perf_counter, self._close
        counter = COUNTERS.get(name)

        if inspect.isgeneratorfunction(fn):
            def resume(gen):
                while True:
                    frame = [layer, 0.0]
                    stack.append(frame)
                    layer.depth += 1
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except BaseException:
                        self.raised += 1
                        raise
                    finally:
                        close(frame, start)
                    yield item

            def gen_wrapper(*args, **kwargs):
                layer.calls += 1
                return resume(fn(*args, **kwargs))
            return gen_wrapper

        def wrapper(*args, **kwargs):
            layer.calls += 1
            frame = [layer, 0.0]
            stack.append(frame)
            layer.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised += 1
                raise
            finally:
                close(frame, start)
            if counter is not None:
                self._count(name, counter, result)
            return result
        return wrapper

    def install(self, layers=LAYERS):
        """Wrap every layer that exists; record the others as absent."""
        importlib.import_module("opgraphs.cli")  # imports every module
        for layer, module_name, path in layers:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for name in outer:
                    owner = getattr(owner, name)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(layer)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(layer, raw.__func__)))
            elif inspect.isclass(owner):
                setattr(owner, attr, self.wrap(layer, raw))
            else:
                wrapper = self.wrap(layer, raw)
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").split(".")[0] == "opgraphs"
                            and getattr(mod, attr, None) is raw):
                        setattr(mod, attr, wrapper)

    def to_json(self):
        return {
            "layers": {
                name: {"calls": layer.calls,
                       "inclusive_s": layer.inclusive,
                       "self_s": layer.self_time,
                       "callers_s": layer.callers}
                for name, layer in sorted(self.layers.items())
            },
            "counters": dict(self.counters),
            "counter_errors": self.counter_errors,
            "raised": self.raised,
            "absent": self.absent,
        }


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("opgraphs.cli")
    try:
        code = cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
