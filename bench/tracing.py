"""Spans around the public functions of markovfrac, recorded from outside.

The tracer replaces each public function by a wrapper in every module
namespace that holds a reference to it, so calls made between modules
(``analysis`` calling ``markov.enumerate_tree``, ``run_all`` looking up
``check_*``) are seen too.  Nothing in the package changes on disk; the
wrappers exist only in the traced child process.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level).  Calls are single-threaded, so spans nest
and a span's self time is its duration minus the durations of its direct
children.  Iterators returned by ``enumerate_tree`` get one span per
``next()`` call, so a walk is timed across its iteration and the consumer's
loop body is not counted as walk time.

Three per-step primitives are deliberately left unwrapped:
``springborn_mediant``, ``farey_mediant`` and ``reduce``.  They run once per
tree or Farey step; a span per call would cost more than the call and would
multiply the span count by the walk length.  Their time stays in the
enclosing walk or descent span.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

MODULES = ("exact", "farey", "markov", "slopes", "analysis", "verify", "cli")
UNWRAPPED = {"springborn_mediant", "farey_mediant", "reduce"}

# Span-name groups behind each timed per-layer metric.  "inclusive" sums the
# outermost spans of the group; "self" subtracts every child span.
GROUPS = {
    "markov.walk_s": ("inclusive", {"markov.enumerate_tree"}),
    "analysis.series_s": ("self", {"analysis.mcshane_partial_sum", "analysis.saltus_mu"}),
    "cli.plot_mu_s": ("inclusive", {"cli.main:plot-mu"}),
    "markov.descend_s": ("inclusive", {"markov.descend_value"}),
    "farey.path_s": ("inclusive", {"farey.farey_path_to"}),
    "farey.qmark_s": ("inclusive", {"farey.question_mark_farey", "farey.question_mark_salem",
                                    "farey.question_mark_of_word"}),
    "slopes.epsilon_s": ("inclusive", {"slopes.epsilon"}),
    "slopes.membership_s": ("inclusive", {"slopes.is_exceptional_slope",
                                          "slopes.bundle_invariants"}),
    "markov.congruence_s": ("inclusive", {"markov.solve_congruence"}),
    "analysis.approx_s": ("inclusive", {"analysis.approx_constant",
                                        "analysis.approx_constant_detail"}),
    "exact.surd_compare_s": ("inclusive", {"exact.surd_compare", "exact.QuadraticSurd.compare"}),
    "exact.surd_enclose_s": ("inclusive", {"exact.surd_enclose"}),
    "analysis.interval_s": ("inclusive", {"analysis.markov_interval", "analysis.interval_freeness",
                                          "analysis.fractions_strictly_inside"}),
}
# Outermost-call counts.
CALL_COUNTS = {
    "slopes.epsilon_calls": {"slopes.epsilon"},
    "markov.congruence_calls": {"markov.solve_congruence"},
    "exact.surd_compare_calls": {"exact.surd_compare", "exact.QuadraticSurd.compare"},
}


class Tracer:
    """In-memory span recorder plus the counters read at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = {
            "markov.vertices": 0,
            "markov.max_operand_bits": 0,
            "analysis.series_terms": 0,
            "farey.path_letters": 0,
            "eps_levels": 0,
            "eps_added": 0,
        }

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, after=None, rename=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name if rename is None else rename(args), 0.0, 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def wrap_tree_walk(self, name, fn):
        """Wrap enumerate_tree: one span per next() call, counting vertices and bits."""
        spans, stack, counts = self.spans, self.stack, self.counts

        def iterate(it):
            while True:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
                stack.append(idx)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    spans[idx][1] = t0
                    spans[idx][2] = t1
                counts["markov.vertices"] += 1
                bits = item[1].f3.denominator.bit_length()
                if bits > counts["markov.max_operand_bits"]:
                    counts["markov.max_operand_bits"] = bits
                yield item

        def wrapper(*args, **kwargs):
            return iterate(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch every public function of the seven modules wherever it is bound."""
        import markovfrac
        mods = {m: sys.modules[f"markovfrac.{m}"] for m in MODULES}
        replacements = {}
        for short, mod in mods.items():
            names = list(getattr(mod, "__all__", ()))
            if short == "verify":
                names += [n for n in vars(mod) if n.startswith("check_")]
            if short == "cli":
                names = ["main"]
            for attr in names:
                fn = getattr(mod, attr, None)
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or attr in UNWRAPPED):
                    continue
                replacements[fn] = self._wrapper_for(f"{short}.{attr}", fn, mod)
        surd = mods["exact"].QuadraticSurd
        surd.compare = self.wrap("exact.QuadraticSurd.compare", surd.compare)
        for mod in (markovfrac, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replacements:
                    setattr(mod, attr, replacements[value])

    def _wrapper_for(self, name, fn, mod):
        counts = self.counts
        if name == "markov.enumerate_tree":
            return self.wrap_tree_walk(name, fn)
        if name in ("analysis.mcshane_partial_sum", "analysis.saltus_mu"):
            position = 0 if name.endswith("mcshane_partial_sum") else 1

            def terms(idx, args, kwargs, result):
                depth = args[position] if len(args) > position else kwargs["depth"]
                # The two seed terms plus one length bound per enumerated vertex;
                # _length_bounds is private, so it is counted here, not wrapped.
                counts["analysis.series_terms"] += (1 << (depth + 1)) + 1
            return self.wrap(name, fn, after=terms)
        if name == "farey.farey_path_to":
            def letters(idx, args, kwargs, result):
                counts["farey.path_letters"] += len(result)
            return self.wrap(name, fn, after=letters)
        if name == "slopes.epsilon":
            return self._wrap_epsilon(fn, mod)
        if name.startswith("verify.check_"):
            spans = self.spans

            def suite_name(idx, args, kwargs, result):
                spans[idx][0] = f"verify.{result.name}"
            return self.wrap(name, fn, after=suite_name)
        if name == "cli.main":
            def command(args):
                argv = args[0] if args and args[0] else sys.argv[1:]
                return f"cli.main:{argv[0] if argv else ''}"
            return self.wrap(name, fn, rename=command)
        return self.wrap(name, fn)

    def _wrap_epsilon(self, fn, slopes):
        counts = self.counts
        inner = self.wrap("slopes.epsilon", fn)

        def cache_size():
            cache = getattr(slopes, "_EPS_CACHE", None)
            return len(cache) if cache is not None else None

        def epsilon(x):
            before = cache_size()
            result = inner(x)
            after = cache_size()
            if isinstance(x, int):
                level = 0
            else:
                den = x.denominator if hasattr(x, "denominator") else 1 << x.n
                level = den.bit_length() - 1
            counts["eps_levels"] += level
            if before is not None and after is not None:
                counts["eps_added"] += after - before
            else:
                counts["eps_added"] += level  # no cache: every level is a miss
            return result

        epsilon.__wrapped__ = fn
        return epsilon

    # -- reduction ---------------------------------------------------------

    def summary(self, slopes_module=None) -> dict[str, float]:
        spans = self.spans
        duration = [s[2] - s[1] for s in spans]
        child_total = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child_total[s[3]] += duration[i]

        def has_ancestor_in(i, names):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] in names:
                    return True
                p = spans[p][3]
            return False

        out: dict[str, float] = {}
        for metric, (kind, names) in GROUPS.items():
            total = 0.0
            for i, s in enumerate(spans):
                if s[0] not in names:
                    continue
                if kind == "self":
                    total += duration[i] - child_total[i]
                elif not has_ancestor_in(i, names):
                    total += duration[i]
            out[metric] = total
        for metric, names in CALL_COUNTS.items():
            out[metric] = sum(1 for i, s in enumerate(spans)
                              if s[0] in names and not has_ancestor_in(i, names))
        suites: dict[str, float] = {}
        for i, s in enumerate(spans):
            if s[0].startswith("verify.") and not s[0].startswith("verify.check_"):
                if s[0] != "verify.run_all":
                    suites[s[0] + "_s"] = suites.get(s[0] + "_s", 0.0) + duration[i]
        out.update(suites)
        out["verify.run_all_s"] = sum(duration[i] for i, s in enumerate(spans)
                                      if s[0] == "verify.run_all")
        out["cli.main_s"] = sum(duration[i] for i, s in enumerate(spans)
                                if s[0].startswith("cli.main:"))
        c = self.counts
        out["markov.vertices"] = c["markov.vertices"]
        out["markov.max_operand_bits"] = c["markov.max_operand_bits"]
        out["analysis.series_terms"] = c["analysis.series_terms"]
        out["farey.path_letters"] = c["farey.path_letters"]
        cache = getattr(slopes_module, "_EPS_CACHE", None) if slopes_module else None
        out["slopes.eps_cache_entries"] = len(cache) if cache is not None else 0
        if cache is None or c["eps_levels"] == 0:
            out["slopes.eps_cache_hit_ratio"] = 0.0
        else:
            out["slopes.eps_cache_hit_ratio"] = 1.0 - c["eps_added"] / c["eps_levels"]
        out["trace.spans"] = len(spans)
        return out

    def dump(self, path) -> None:
        """Write the spans as compact JSON: a name table plus index rows."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent in self.spans:
            rows.append([names.setdefault(name, len(names)), round(start, 7),
                         round(end, 7), parent])
        with open(path, "w") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))
