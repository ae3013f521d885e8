"""Batch command-line interface.

Loads an instance and a factorization system, runs the requested checks,
and emits one JSON line per check. Reports are replayable: identical
arguments (including the seed) produce byte-identical report files, and
`replay` re-runs a saved report's configs and confirms every verdict.

Wall-clock timings are shown in text output only; they are kept out of
the JSON lines so that report files stay byte-stable across runs.
"""

import argparse
import functools
import itertools
import json
import random
import sys
import time

from .allegory import (AllegoryView, allegory_suite, check_allegorical_criterion,
                       check_allegorical_relation, check_modular_law, counit_check,
                       find_unit, map_category, tabulate)
from .classes import check_splitepi_mono_agreement, e_bullet, e_circ, first_outside, m_star
from .errors import ConfigError, ParseError, SpanalgError, TabulationFailed
from .fincat import FinCatCategory
from .finset import FinSetCategory
from .spans import make_equivalence, relation_spans, stream_spans
from .systems import default_carrier, named_system, validate_system
from .tablecat import load_table_json
from .thin import ThinCategory
from .verdict import FAILS, HOLDS, UNKNOWN, Verdict, combine


# -- configuration ---------------------------------------------------------------

class _ConfigParser(argparse.ArgumentParser):
    """Raises a ParseError where argparse would print usage and exit, for
    the configs that `replay` reads from a report."""

    def error(self, message):
        raise ParseError(message)


def build_parser():
    return _parser(argparse.ArgumentParser)


def _parser(cls):
    p = cls(prog="spanalg", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("validate", "check-allegory", "ebullet", "quotient",
                 "tabulate", "map-counit"):
        sp = sub.add_parser(name)
        _common_flags(sp)
    rp = sub.add_parser("replay")
    rp.add_argument("--file", required=True, help="report file to re-verify")
    return p


def _common_flags(sp):
    sp.add_argument("--category", choices=("finset", "thin", "fincat", "table"),
                    default="finset")
    sp.add_argument("--system", default=None)
    sp.add_argument("--relation", choices=("simE", "simEo", "simEbullet", "approx"),
                    default="simE")
    sp.add_argument("--max-size", type=int, default=2, dest="max_size")
    sp.add_argument("--bound", type=int, default=4096,
                    help="search budget for bounded sweeps")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--file", default=None, help="JSON file for --category table")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "text"), default="text")


def build_category(args):
    if args.category == "finset":
        if not 0 <= args.max_size <= 3:
            raise ConfigError(f"--category finset takes --max-size 0..3, not {args.max_size}")
        return FinSetCategory(args.max_size)
    if args.max_size < 0:
        raise ConfigError(f"--max-size takes 0 or more, not {args.max_size}")
    if args.category == "thin":
        return ThinCategory.chain(max(args.max_size, 1))
    if args.category == "fincat":
        return FinCatCategory(max_objects=min(args.max_size, 2), max_morphisms=3)
    if args.category == "table":
        if args.command != "validate":
            raise ParseError(f"--category table supports only validate, not {args.command}")
        if not args.file:
            raise ParseError("--category table needs --file")
        return load_table_json(args.file)
    raise ParseError(f"unknown category {args.category!r}")


def default_system_name(args):
    if args.system:
        return args.system
    return {"finset": "surj-inj", "thin": "iso-all",
            "fincat": "bijObj-ff"}.get(args.category, "iso-all")


class Context:
    """Everything a command needs, built once per invocation. A table is
    only validated, so it gets no carrier and no system."""

    def __init__(self, args):
        self.args = args
        if args.bound < 0:
            raise ConfigError(f"--bound takes 0 or more, not {args.bound}")
        self.cat = build_category(args)
        self.carrier = self.system = None
        if args.category != "table":
            self.carrier = default_carrier(self.cat)
            self.system = named_system(self.cat, default_system_name(args))
        self.rng = random.Random(args.seed)

    @functools.cached_property
    def mstar(self):
        return m_star(self.cat, self.system.M, self.carrier)

    @functools.cached_property
    def ecirc(self):
        return e_circ(self.cat, self.system.E, self.carrier)

    @functools.cached_property
    def ebullet(self):
        return e_bullet(self.cat, self.system, self.carrier, self.mstar)

    def e_like(self):
        """The class E that the relation quotients by: the system's E, E_o
        or E_bullet; None for approx."""
        relation = self.args.relation
        if relation == "simE":
            return self.system.E
        if relation == "simEo":
            return self.ecirc
        if relation == "simEbullet":
            return self.ebullet
        return None

    def equivalence(self):
        tag = self.args.relation
        if tag == "simE":
            return make_equivalence(self.cat, tag, system=self.system)
        return make_equivalence(self.cat, tag, e_class=self.e_like())

    def view(self):
        return AllegoryView(self.cat, self.equivalence(),
                            objects=list(self.carrier.objects))

    def objects(self):
        return list(self.carrier.objects)

    def config_echo(self):
        a = self.args
        return {"command": a.command, "category": a.category,
                "system": a.system, "relation": a.relation,
                "maxSize": a.max_size, "bound": a.bound, "seed": a.seed,
                "file": a.file}


# -- reporting --------------------------------------------------------------------

class Reporter:
    def __init__(self, ctx):
        self.ctx = ctx
        self.lines = []
        self.timings = []

    def record(self, check, verdict, sample_spec=None, witness=None):
        line = {
            "check": check,
            "instance": self.ctx.args.category,
            "system": self.ctx.system.name if self.ctx.system else None,
            "relation": self.ctx.args.relation,
            "sampleSpec": sample_spec or {},
            "verdict": verdict.outcome,
            "config": self.ctx.config_echo(),
        }
        w = witness if witness is not None else verdict.witness
        if w is not None:
            line["witness"] = repr(w)
        if verdict.reason:
            line["reason"] = verdict.reason
        self.lines.append(line)
        return line

    def run(self, check, fn, sample_spec=None):
        t0 = time.monotonic()
        try:
            verdict = fn()
        except TabulationFailed as exc:
            verdict = Verdict.no(exc.args, f"tabulation failed: {exc.equation}")
        self.timings.append((check, time.monotonic() - t0))
        return self.record(check, verdict, sample_spec)

    def skip(self, check, why):
        return self.record(check, Verdict.maybe(reason=f"skipped: {why}"))

    def exit_code(self):
        outcomes = {l["verdict"] for l in self.lines}
        if FAILS in outcomes:
            return 1
        if UNKNOWN in outcomes:
            return 3
        return 0

    def emit(self, args):
        payload = "\n".join(json.dumps(l, sort_keys=True) for l in self.lines)
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(payload + "\n")
            except OSError as exc:
                raise ConfigError(f"cannot write --out {args.out}: {exc.strerror}") from None
        if args.format == "json":
            print(payload)
        else:
            times = dict(self.timings)
            for l in self.lines:
                mark = {HOLDS: "ok", FAILS: "FAIL", UNKNOWN: "?"}[l["verdict"]]
                t = times.get(l["check"])
                stamp = f"  [{t:.2f}s]" if t is not None else ""
                reason = f"  {l['reason']}" if "reason" in l else ""
                extra = f"  witness={l['witness']}" if "witness" in l else ""
                print(f"{mark:>4}  {l['check']}{stamp}{reason}{extra}")
        return self.exit_code()


# -- commands --------------------------------------------------------------------

def cmd_validate(ctx, rep):
    if ctx.args.category == "table":
        # load_table_json already raised a located ParseError on bad input
        rep.record("table-well-formed", Verdict.yes(reason="composition table valid"))
        return
    spec = {"objects": len(ctx.objects())}
    rep.run("system-valid",
            lambda: validate_system(ctx.system, ctx.carrier), spec)
    rep.run("splitepi-mono-agreement",
            lambda: check_splitepi_mono_agreement(ctx.cat, ctx.system, ctx.carrier), spec)


def cmd_quotient(ctx, rep):
    view = ctx.view()
    total = 0
    complete = True
    for a, b in itertools.product(ctx.objects(), repeat=2):
        reps, comp = view.hom(a, b)
        total += len(reps)
        complete = complete and comp
        rep.record(f"quotient-hom-{a}-{b}",
                   Verdict.yes(reason=f"{len(reps)} classes") if comp
                   else Verdict.maybe(reason=f">= {len(reps)} classes (bounded)"),
                   {"dom": repr(a), "cod": repr(b)})
    rep.record("quotient-total",
               Verdict.yes(reason=f"{total} classes") if complete
               else Verdict.maybe(reason=f">= {total} classes (bounded)"))


def _seeded_triples(view, rng, objs, n):
    out = []
    homs = {}
    for _ in range(n):
        a, b, c = (rng.choice(objs) for _ in range(3))
        for key in ((a, b), (b, c), (a, c)):
            if key not in homs:
                homs[key] = view.hom(*key)[0]
        if homs[(a, b)] and homs[(b, c)] and homs[(a, c)]:
            out.append((rng.choice(homs[(a, b)]), rng.choice(homs[(b, c)]),
                        rng.choice(homs[(a, c)])))
    return out


def cmd_check_allegory(ctx, rep):
    view = ctx.view()
    objs = ctx.objects()
    spec = {"objects": len(objs), "seed": ctx.args.seed}
    suite = rep.run("allegory-suite",
                    lambda: allegory_suite(view, objects=objs, budget=ctx.args.bound), spec)
    rep.run("seeded-modular-triples",
            lambda: check_modular_law(view, _seeded_triples(view, ctx.rng, objs, 50)),
            spec)
    rep.run("allegorical-relation",
            lambda: check_allegorical_relation(ctx.cat, view.equiv,
                                               ctx.carrier.morphisms()), spec)
    e_like = ctx.e_like()
    if e_like is not None:
        rep.run("retraction-criterion",
                lambda: check_allegorical_criterion(
                    ctx.cat, e_like, ctx.carrier.morphisms(), objs,
                    budget=ctx.args.bound), spec)
    if suite["verdict"] == FAILS:
        rep.skip("unit", "allegory suite failed")
        return
    rep.run("unit", lambda: find_unit(view, objs).verdict, spec)


def cmd_ebullet(ctx, rep):
    spec = {"objects": len(ctx.objects()), "seed": ctx.args.seed}
    valid = rep.run("system-valid",
                    lambda: validate_system(ctx.system, ctx.carrier), spec)
    if valid["verdict"] == FAILS:
        rep.skip("class-tables", "system invalid")
        return
    for cls in (ctx.mstar, ctx.ecirc, ctx.ebullet):
        members = sorted(repr(m) for m in cls.members)
        rep.record(f"class-{cls.name}",
                   Verdict.yes(reason=f"{len(members)} carrier members"),
                   {"members": members})
    # spot-check the inclusion of the split-epi closure relation in the
    # conjugate-closure relation on seeded parallel span pairs
    eqO = make_equivalence(ctx.cat, "simEo", e_class=ctx.ecirc)
    eqB = make_equivalence(ctx.cat, "simEbullet", e_class=ctx.ebullet)

    def inclusion():
        objs = ctx.objects()
        hom_cache = {}
        checked = 0
        undecided = None
        for _ in range(200):
            a, b = ctx.rng.choice(objs), ctx.rng.choice(objs)
            spans = hom_cache.get((a, b))
            if spans is None:
                spans = hom_cache[(a, b)] = stream_spans(ctx.cat, a, b)
            if not spans:
                continue
            s1, s2 = ctx.rng.choice(spans), ctx.rng.choice(spans)
            if eqO.equal(s1, s2).holds:
                checked += 1
                v = eqB.equal(s1, s2)
                if v.fails:
                    return Verdict.no((s1, s2), "related under E-circ but not E-bullet")
                if v.unknown and undecided is None:
                    undecided = (s1, s2)
        if undecided is not None:
            return Verdict.maybe(f"E-bullet undecided on the related pair {undecided[0]!r}, "
                                 f"{undecided[1]!r}")
        return Verdict.yes(reason=f"{checked} related pairs re-verified")

    rep.run("ecirc-included-in-ebullet", inclusion, spec)


def cmd_tabulate(ctx, rep):
    view = ctx.view()
    spec = {"objects": len(ctx.objects())}
    for a, b in itertools.product(ctx.objects(), repeat=2):
        reps, _ = view.hom(a, b)

        def run_all(reps=reps):
            verdicts = []
            for r in reps:
                tab = tabulate(view, ctx.system, r)
                verdicts.append(combine([tab.composite, tab.joint_monicity,
                                         tab.f.verdict, tab.g.verdict]))
            out = combine(verdicts)
            return Verdict.yes(reason=f"{len(reps)} classes") if out.holds else out

        rep.run(f"tabulate-{a}-{b}", run_all, spec)


def cmd_map_counit(ctx, rep):
    if ctx.args.category == "fincat":
        # the functor-category variant only runs the inclusion probe; the
        # full map sweep is out of reach of the bounded functor search
        _fincat_probe(ctx, rep)
        return
    view = ctx.view()
    objs = ctx.objects()
    spec = {"objects": len(objs)}
    mc = map_category(view, ctx.system, objs)
    for a, b in itertools.product(objs, repeat=2):
        maps = mc.hom(a, b)
        tags = sorted(mc.classify(f) for f in maps)
        rep.record(f"maps-{a}-{b}",
                   Verdict.yes(reason=f"{len(maps)} maps: {tags}"),
                   {"dom": repr(a), "cod": repr(b)})
    for a, b in itertools.product(objs, repeat=2):
        # the carrier objects, then the apexes of relations a -> b beyond them
        apexes = list(dict.fromkeys(objs + [s.apex for s in relation_spans(ctx.cat, a, b)]))
        rep.run(f"counit-{a}-{b}",
                lambda a=a, b=b, ap=apexes: counit_check(view, ctx.system,
                                                         a, b, apexes=ap),
                spec)


def _fincat_probe(ctx, rep):
    """Reports whether the chosen system's E sits inside the epis and M
    inside the monos on the bounded carrier; no expected outcome is
    asserted, only the observed verdicts."""
    mors = ctx.carrier.morphisms()

    def within(cls, test, reason):
        f = first_outside(cls, test, mors)
        if f is not None:
            return Verdict.no(f, reason)
        return Verdict.yes(reason=f"{len(mors)} morphisms swept")

    system, cat = ctx.system, ctx.cat
    rep.run("probe-E-in-epi", lambda: within(system.E, cat.is_epi, "in E but not epi"))
    rep.run("probe-M-in-mono", lambda: within(system.M, cat.is_mono, "in M but not mono"))


def read_report(path):
    """The lines of a saved report, each with its line number; ParseError
    on an unreadable file or on a line that is not a JSON object with a
    check and a config."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(str(exc), path)
    lines = []
    for n, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        try:
            line = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not JSON: {exc}", f"{path}:{n}")
        if not isinstance(line, dict) or "check" not in line \
                or not isinstance(line.get("config"), dict):
            raise ParseError("not a report line with a check and a config", f"{path}:{n}")
        lines.append((n, line))
    return lines


def cmd_replay(args):
    numbered = read_report(args.file)
    lines = [l for _, l in numbered]
    configs = []    # (the number of the first line carrying it, config)
    for n, l in numbered:
        if all(l["config"] != cfg for _, cfg in configs):
            configs.append((n, l["config"]))
    mismatches = 0
    for n, cfg in configs:
        where = f"{args.file}:{n}"
        try:
            argv = [cfg["command"], "--category", cfg["category"],
                    "--relation", cfg["relation"], "--max-size", cfg["maxSize"],
                    "--bound", cfg["bound"], "--seed", cfg["seed"], "--format", "json"]
        except KeyError as exc:
            raise ParseError(f"config has no {exc}", where)
        if cfg["command"] not in COMMANDS:
            raise ParseError(f"config command {cfg['command']!r} is not one of "
                             f"{', '.join(COMMANDS)}", where)
        if cfg.get("system"):
            argv += ["--system", cfg["system"]]
        if cfg.get("file"):
            argv += ["--file", cfg["file"]]
        try:
            ns = _parser(_ConfigParser).parse_args([str(a) for a in argv])
        except ParseError as exc:
            raise ParseError(f"config rejected: {exc}", where) from None
        ctx = Context(ns)
        rep = Reporter(ctx)
        COMMANDS[ns.command](ctx, rep)
        fresh = {l2["check"]: l2 for l2 in rep.lines}
        for l in lines:
            if l["config"] != cfg:
                continue
            new = fresh.get(l["check"])
            same = new == l
            print(f"{'match' if same else 'MISMATCH'}  {l['check']}")
            if not same:
                mismatches += 1
    return 1 if mismatches else 0


COMMANDS = {
    "validate": cmd_validate,
    "quotient": cmd_quotient,
    "check-allegory": cmd_check_allegory,
    "ebullet": cmd_ebullet,
    "tabulate": cmd_tabulate,
    "map-counit": cmd_map_counit,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "replay":
            return cmd_replay(args)
        ctx = Context(args)
        rep = Reporter(ctx)
        COMMANDS[args.command](ctx, rep)
        return rep.emit(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SpanalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
