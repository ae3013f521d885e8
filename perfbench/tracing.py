"""Layer tracing from outside the library.

`install(tracer)` replaces the public functions and methods listed in
`TARGETS` with counting, timing wrappers. A module-level function is
replaced in every `spanalg` module that holds it, because callers look it
up in their own module's globals (`spanalg.allegory.span_compose`, not
only `spanalg.spans.span_compose`). Methods are replaced on their class.

For every traced name the tracer keeps the number of calls, the inclusive
time of the outermost calls (`.s`) and the self time (`.self_s`): the
inclusive time minus the time spent in traced callees.
"""

import functools
import sys
import time

# traced name -> (module, attribute path) of every function or method it covers
TARGETS = {
    "finset.compose": [("finset", "FinSetCategory.compose")],
    "finset.pullback": [("finset", "FinSetCategory.pullback")],
    "finset.product": [("finset", "FinSetCategory.product")],
    "thin.compose": [("thin", "ThinCategory.compose")],
    "thin.product": [("thin", "ThinCategory.product")],
    "spans.span_compose": [("spans", "span_compose")],
    "spans.span_meet": [("spans", "span_meet")],
    "spans.involution": [("spans", "involution")],
    "spans.enumerate_hom_classes": [("spans", "enumerate_hom_classes")],
    "spans.key": [("spans", "SpanEquivalence.key"),
                  ("spans", "FactorizationEquivalence.key")],
    "spans.m_part": [("spans", "FactorizationEquivalence.m_part")],
    "spans.equal": [("spans", "FactorizationEquivalence.equal"),
                    ("spans", "StableClassEquivalence.equal"),
                    ("spans", "IsoEquivalence.equal"),
                    ("spans", "ApproxEquivalence.equal")],
    "allegory.rep": [("allegory", "AllegoryView.rep")],
    "allegory.compose": [("allegory", "AllegoryView.compose")],
    "allegory.meet": [("allegory", "AllegoryView.meet")],
    "allegory.inv": [("allegory", "AllegoryView.inv")],
    "allegory.check_order": [("allegory", "check_order")],
    "allegory.check_monotone_composition": [("allegory", "check_monotone_composition")],
    "allegory.check_modular_law": [("allegory", "check_modular_law")],
    "allegory.check_special_modular_law": [("allegory", "check_special_modular_law")],
    "allegory.find_unit": [("allegory", "find_unit")],
    "allegory.map_hom": [("allegory", "MapCategory.hom")],
    "allegory.is_map": [("allegory", "is_map")],
    "allegory.tabulate": [("allegory", "tabulate")],
    "allegory.counit_check": [("allegory", "counit_check")],
    "classes.conjugates": [("classes", "conjugates")],
    "classes.m_star": [("classes", "m_star")],
    "classes.composition_closure": [("classes", "composition_closure")],
    "classes.e_bullet": [("classes", "e_bullet")],
    "classes.membership": [("classes", "MorClass.membership")],
    "cli.context": [("cli", "Context.__init__")],
    "cli.emit": [("cli", "Reporter.emit")],
}

# span builds made by the view's operation caches on a miss
_OPS = ("allegory.compose", "allegory.meet", "allegory.inv")
_BUILDS = ("spans.span_compose", "spans.span_meet", "spans.involution")


class Tracer:
    def __init__(self):
        self.stats = {}        # name -> [calls, inclusive_s, self_s]
        self.builds = 0        # span builds whose caller is a view operation
        self.interned = {}     # id -> every distinct representative rep returned
        self._stack = []       # [name, time spent in traced callees]
        self._depth = {}

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        depth = self._depth
        depth.setdefault(name, 0)
        clock = time.perf_counter
        is_build = name in _BUILDS
        interned = self.interned if name == "allegory.rep" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats[0] += 1
            if is_build and stack and stack[-1][0] in _OPS:
                self.builds += 1
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                if not depth[name]:
                    stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if interned is not None:
                interned[id(out)] = out
            return out

        return traced

    def metric(self, name, field):
        calls, incl, self_s = self.stats.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "s": incl, "self_s": self_s}[field]


def install(tracer):
    """Wrap every target, wherever a `spanalg` module or class holds it."""
    from spanalg import cli, systems  # noqa: F401  (the package does not import cli)

    modules = [m for n, m in sys.modules.items()
               if n == "spanalg" or n.startswith("spanalg.")]
    for name, targets in TARGETS.items():
        for mod_name, path in targets:
            owner = sys.modules[f"spanalg.{mod_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = tracer.wrap(name, original)
            setattr(owner, attr, wrapped)
            if not cls_path:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    # a system's factor is an instance attribute, so wrap it as each
    # FactSystem is built
    init = systems.FactSystem.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.factor = tracer.wrap("systems.factor", self.factor)

    systems.FactSystem.__init__ = traced_init


# per-layer metric -> (traced name, field); see the README for the layer map
COUNTED = {
    "finset.compose.calls": ("finset.compose", "calls"),
    "finset.pullback.calls": ("finset.pullback", "calls"),
    "finset.product.calls": ("finset.product", "calls"),
    "finset.pullback.self_s": ("finset.pullback", "self_s"),
    "thin.compose.calls": ("thin.compose", "calls"),
    "thin.product.calls": ("thin.product", "calls"),
    "systems.factor.calls": ("systems.factor", "calls"),
    "spans.span_compose.calls": ("spans.span_compose", "calls"),
    "spans.span_meet.calls": ("spans.span_meet", "calls"),
    "spans.key.calls": ("spans.key", "calls"),
    "spans.m_part.calls": ("spans.m_part", "calls"),
    "spans.equal.calls": ("spans.equal", "calls"),
    "spans.equal.self_s": ("spans.equal", "self_s"),
    "spans.enumerate_hom_classes.s": ("spans.enumerate_hom_classes", "s"),
    "allegory.rep.calls": ("allegory.rep", "calls"),
    "allegory.rep.self_s": ("allegory.rep", "self_s"),
    "allegory.check_order.s": ("allegory.check_order", "s"),
    "allegory.check_monotone_composition.s": ("allegory.check_monotone_composition", "s"),
    "allegory.check_modular_law.s": ("allegory.check_modular_law", "s"),
    "allegory.check_special_modular_law.s": ("allegory.check_special_modular_law", "s"),
    "allegory.find_unit.s": ("allegory.find_unit", "s"),
    "allegory.map_hom.s": ("allegory.map_hom", "s"),
    "allegory.is_map.calls": ("allegory.is_map", "calls"),
    "allegory.tabulate.calls": ("allegory.tabulate", "calls"),
    "allegory.tabulate.s": ("allegory.tabulate", "s"),
    "allegory.counit_check.s": ("allegory.counit_check", "s"),
    "classes.conjugates.s": ("classes.conjugates", "s"),
    "classes.m_star.calls": ("classes.m_star", "calls"),
    "classes.composition_closure.s": ("classes.composition_closure", "s"),
    "classes.e_bullet.s": ("classes.e_bullet", "s"),
    "classes.membership.calls": ("classes.membership", "calls"),
    "cli.context.s": ("cli.context", "s"),
    "cli.emit.s": ("cli.emit", "s"),
}


def layer_metrics(tracer):
    """Every per-layer metric of one traced round, as {name: value}."""
    out = {m: tracer.metric(name, field) for m, (name, field) in COUNTED.items()}
    ops = sum(tracer.metric(n, "calls") for n in _OPS)
    out["allegory.rep.interned"] = len(tracer.interned)
    out["allegory.op_cache.ops"] = ops
    out["allegory.op_cache.builds"] = tracer.builds
    out["allegory.op_cache.hit_ratio"] = 1 - tracer.builds / ops if ops else 0.0
    return out
