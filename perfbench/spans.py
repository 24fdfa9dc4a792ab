"""Per-layer spans for the traced run.

Each span is named after the module layer whose public functions it
wraps.  The wrappers are installed at every module attribute (and every
module-level dict entry, such as ``cli.PRESETS``) that holds the original
function, so a caller that resolves the name through its own module still
reaches the wrapper.  Private helpers are not wrapped: their time lands
in the public span that calls them.
"""

import contextlib
import functools
import time

SPANS = {
    "geom.diameter": ("geom", ("points_diameter", "region_diameter",
                               "polygon_diameter")),
    "geom.hull": ("geom", ("convex_hull",)),
    "geom.resample": ("geom", ("resample_boundary",)),
    "search.equal_area": ("search", ("equal_area_segment_trisection",
                                     "perturbed_polyline_trisection")),
    "search.sweep": ("search", ("sweep_segment_trisections",)),
    "search.checks": ("search", ("verify_h_tilde_optimal", "antipodal_gap",
                                 "lemma_floor_checks", "functional_quotient")),
    "trisection.standard": ("trisection", ("standard_trisection",)),
    "trisection.closed_form": ("trisection", ("closed_form_dm_standard",
                                              "inscribed_ball_radius")),
    "trisection.dm": ("trisection", ("max_relative_diameter",)),
    "bodies.build": ("bodies", ("make_regular_polygon", "make_reuleaux",
                                "make_h_eps", "make_h_tilde", "random_body")),
    "bodies.validate": ("bodies", ("validate",)),
    "cli": ("cli", ("main",)),
}
# Spans whose first argument is a point set; its length is counted once
# per outermost entry into the span.
POINT_SPANS = ("geom.diameter",)
MODULES = ("geom", "bodies", "trisection", "search", "render", "cli")


class SpanStats:
    __slots__ = ("calls", "self_s", "entries", "raised", "points_in")

    def __init__(self):
        self.calls = 0       # every call of a wrapped function
        self.self_s = 0.0    # duration minus the time of nested spans
        self.entries = 0     # calls not nested in the same span
        self.raised = 0      # entries that raised
        self.points_in = 0   # points passed on entry (POINT_SPANS only)


class Tracer:
    """Stack of open spans; a span's self time is its duration minus the
    durations of the spans opened directly inside it, so nested calls of
    the same span add up to the outer call's duration."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # [span, start, child_s]
        self.stats = {}

    def wrap(self, span, fn):
        count_points = span in POINT_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = all(frame[0] != span for frame in self.stack)
            frame = [span, self.clock(), 0.0]
            self.stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self.stack.pop()
                dur = self.clock() - frame[1]
                st = self.stats.setdefault(span, SpanStats())
                st.calls += 1
                st.self_s += dur - frame[2]
                if outer:
                    st.entries += 1
                    st.raised += not ok
                    if count_points and args:
                        st.points_in += len(args[0])
                if self.stack:
                    self.stack[-1][2] += dur

        return wrapper


class Summary:
    """A tracer's stats over a traced phase of ``wall_s`` seconds."""

    def __init__(self, tracer, wall_s):
        self.stats = tracer.stats
        self.wall_s = wall_s

    def __getitem__(self, span):
        return self.stats.get(span, SpanStats())

    def share(self, span):
        return self[span].self_s / self.wall_s


def _namespaces(package):
    mods = [package] + [getattr(package, name) for name in MODULES]
    for mod in mods:
        ns = vars(mod)
        yield ns
        for key, value in list(ns.items()):
            if isinstance(value, dict) and not key.startswith("__"):
                yield value


@contextlib.contextmanager
def installed(tracer, package):
    """Installs a tracer's wrappers into the trisect package for the
    duration of the block and restores every original on exit."""
    wrappers = {}
    for span, (module, names) in SPANS.items():
        mod = getattr(package, module)
        for name in names:
            fn = getattr(mod, name)
            wrappers[id(fn)] = (fn, tracer.wrap(span, fn))
    patched = []  # (namespace, key, original)
    try:
        for ns in _namespaces(package):
            for key, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patched.append((ns, key, value))
                    ns[key] = hit[1]
        yield tracer
    finally:
        for ns, key, original in reversed(patched):
            ns[key] = original
