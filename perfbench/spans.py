"""In-memory span recorder that wraps voteloop's functions from outside.

`install(tracer, voteloop)` replaces every public function of the traced modules, plus
the few private steps the phase breakdown needs, with a wrapper that records
one span per call: name, start, end and parent. Spans live in flat arrays
and are written out once, at the end (`Tracer.save`). Nothing in the
library changes; the wrappers call the original functions with the original
arguments, so a traced run writes the same bytes as an untraced one.

Three details of how voteloop binds names decide where a wrapper must go:

- `engine`, `metrics`, `verify`, `fixed_point` and `cli` import with
  `from .x import y`, so a wrapper is written into every module namespace
  that holds the original function, not only the defining module.
- `equivalent` (and a few others) are bound as default argument values, so
  those defaults are rewritten to the wrappers too.
- `answers._parse_default` is an `lru_cache` over the unwrapped
  `parse_answer`; cached parses inside `equivalent` are not seen as
  `answers.parse_answer` spans, only direct calls are.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

MODULES = (
    "engine", "metrics", "rewards", "answers", "util", "policy",
    "optim", "fixed_point", "tasks", "verify", "cli",
)

# Private steps and methods that get spans so phases can be told apart:
# (module, attribute path, span name).
EXTRA_SPANS = (
    ("engine", "_chain_log_weights", "engine._chain_log_weights"),
    ("engine", "_update_tabular", "engine._update_tabular"),
    ("engine", "OfflineDataset.save", "engine.dataset_save"),
    ("engine", "OfflineDataset.weighted_samples", "engine.weighted_samples"),
    ("policy", "_PolicyBase.sample", "policy.sample"),
    ("policy", "_PolicyBase.mean_entropy", "policy.mean_entropy"),
)


class Tracer:
    """Spans in flat arrays; parents always precede their children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}

    def name_id_of(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        nid = self.name_id_of(name)
        clock = time.perf_counter
        stack, name_ids, parents = self._stack, self.name_id, self.parent
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result, args, kwargs)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _observers(tracer: Tracer) -> dict[str, object]:
    """Counters taken where the work happens, from return values."""
    seen_pairs: set[tuple[str, str]] = set()

    def equivalent(result, args, kwargs):
        pair = (args[0], args[1]) if len(args) >= 2 else (kwargs.get("a"), kwargs.get("b"))
        tracer.count("answers.equivalent.calls")
        if pair in seen_pairs:
            tracer.count("answers.equivalent.repeats")
        else:
            seen_pairs.add(pair)

    def solve_gradient(result, args, kwargs):
        report = result[1]
        tracer.count("optim.solve_gradient.trace_len", len(report.objective_trace))
        prev = tracer.counters.get("optim.solve_gradient.max_iterations", 0.0)
        tracer.counters["optim.solve_gradient.max_iterations"] = max(prev, report.iterations)

    return {"answers.equivalent": equivalent, "optim.solve_gradient": solve_gradient}


def _count_solve_prompt(tracer: Tracer, fn):
    """Per-prompt solver outcomes, counted without a span so the solver's
    time stays self time of `optim.solve_gradient`."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.count("optim.solve_prompt.calls")
        if not result[3]:
            tracer.count("optim.solve_prompt.unconverged")
        return result

    return counted


def install(tracer: Tracer, package) -> None:
    """Wrap the traced functions of `package` (the imported voteloop)."""
    modules = {name: getattr(package, name) for name in MODULES}
    observers = _observers(tracer)
    wrapped: dict[int, object] = {}

    for mod_name, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__ == mod.__name__
            ):
                span = f"{mod_name}.{attr}"
                wrapped[id(obj)] = tracer.wrap(span, obj, observers.get(span))

    # The eval hook is a closure returned by make_eval_hook; its name is
    # registered now so a workload without eval reports zero calls.
    tracer.name_id_of("metrics.eval_hook")
    make_hook = vars(modules["metrics"])["make_eval_hook"]
    hook_factory = wrapped[id(make_hook)]
    wrapped[id(make_hook)] = functools.wraps(make_hook)(
        lambda *a, **kw: tracer.wrap("metrics.eval_hook", hook_factory(*a, **kw))
    )

    originals = []
    for mod_name, path, span in EXTRA_SPANS:
        owner, attr = _resolve_owner(modules[mod_name], path)
        fn = vars(owner)[attr]
        wrapped[id(fn)] = tracer.wrap(span, fn)
        originals.append((owner, attr, fn))
    solve_prompt = vars(modules["optim"])["_solve_prompt"]
    wrapped[id(solve_prompt)] = _count_solve_prompt(tracer, solve_prompt)

    _rebind(package, modules, wrapped, originals)


def _resolve_owner(module, path: str):
    parts = path.split(".")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rebind(package, modules, wrapped, originals) -> None:
    """Point every lookup site at the wrappers: module globals, class
    attributes, the verify suite table, and default argument values."""
    for owner, attr, fn in originals:
        setattr(owner, attr, wrapped[id(fn)])

    functions = []
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and not attr.startswith("__"):
                setattr(mod, attr, wrapped[id(obj)])
            if inspect.isfunction(obj):
                functions.append(getattr(obj, "__wrapped_original__", obj))
            elif inspect.isclass(obj) and obj.__module__.startswith(package.__name__):
                for member in vars(obj).values():
                    member = getattr(member, "__func__", member)  # classmethod
                    member = getattr(member, "__wrapped_original__", member)
                    if inspect.isfunction(member):
                        functions.append(member)
    suites = modules["verify"].SUITES
    for key, fn in list(suites.items()):
        suites[key] = wrapped.get(id(fn), fn)

    for fn in functions:
        if fn.__defaults__:
            fn.__defaults__ = tuple(wrapped.get(id(v), v) for v in fn.__defaults__)
        if fn.__kwdefaults__:
            fn.__kwdefaults__ = {k: wrapped.get(id(v), v) for k, v in fn.__kwdefaults__.items()}
