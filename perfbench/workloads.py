"""The four workloads: set-up, the timed work, the report and its checks.

Each workload has `setup(seed)` (building the category, carrier, system
and view), `run(state)` (the timed work, up to the last verdict),
`report(state, raw)` (the report text, compared byte for byte between
rounds) and `check(state, raw, report)`, which returns a list of problems
found by comparing the outputs with `oracle`. An operation is one verdict
line of the report.
"""

import contextlib
import io
import itertools
import json
import random
import re

from spanalg import allegory, cli
from spanalg.errors import TabulationFailed
from spanalg.finset import FinSetCategory
from spanalg.spans import make_equivalence
from spanalg.systems import default_carrier, named_system
from spanalg.verdict import Verdict, combine

import oracle

HOLDS = "Holds"


def relation(span):
    """The relation a FinSet span stands for."""
    return frozenset(zip(span.left.table, span.right.table))


# -- CLI workloads -----------------------------------------------------------------

def cli_context(argv):
    return cli.Context(cli.build_parser().parse_args(argv))


def cli_run(ctx):
    """One CLI command on a built context, as `spanalg.cli.main` runs it."""
    rep = cli.Reporter(ctx)
    cli.COMMANDS[ctx.args.command](ctx, rep)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rep.emit(ctx.args)
    return code, out.getvalue()


def report_lines(report):
    return [json.loads(line) for line in report.splitlines() if line.strip()]


def verdict_problems(lines, expected_checks):
    problems = []
    checks = [l["check"] for l in lines]
    if checks != expected_checks:
        problems.append(f"checks {checks} != {expected_checks}")
    problems += [f"{l['check']}: {l['verdict']} {l.get('reason', '')}"
                 for l in lines if l["verdict"] != HOLDS]
    return problems


def count_unknown(lines):
    return sum(l["verdict"] == "Unknown" for l in lines)


ALLEGORY_CHECKS = ["allegory-suite", "seeded-modular-triples",
                   "allegorical-relation", "retraction-criterion", "unit"]


class CheckAllegory:
    """`spanalg check-allegory` with its view built in set-up."""

    argv = None

    def setup(self, seed):
        ctx = cli_context(self.argv + ["--seed", str(seed), "--format", "json"])
        view = ctx.view()
        ctx.view = lambda: view
        return ctx

    def run(self, ctx):
        return cli_run(ctx)

    def report(self, ctx, raw):
        return raw[1]

    def ops(self, raw):
        lines = report_lines(raw[1])
        return len(lines), count_unknown(lines)

    def check(self, ctx, raw, report):
        code, _ = raw
        problems = [] if code == 0 else [f"exit code {code}"]
        return problems + verdict_problems(report_lines(report), ALLEGORY_CHECKS)


class LawsKeyed(CheckAllegory):
    argv = ["check-allegory", "--category", "finset", "--system", "surj-inj",
            "--relation", "simE", "--max-size", "2"]

    def check(self, ctx, raw, report):
        problems = super().check(ctx, raw, report)
        view = ctx.view()
        objs = range(3)
        homs = {}
        for a, b in itertools.product(objs, repeat=2):
            reps, complete = view.hom(a, b)
            rels = [relation(r) for r in reps]
            if not complete or len(reps) != 2 ** (a * b) \
                    or set(rels) != oracle.relations(a, b):
                problems.append(f"hom({a},{b}): {len(reps)} classes, "
                                f"not the 2^{a * b} relations")
            homs[(a, b)] = list(zip(reps, rels))
        for a, b, c in itertools.product(objs, repeat=3):
            for (r, rr), (s, sr) in itertools.product(homs[(a, b)], homs[(b, c)]):
                if relation(view.compose(r, s)) != oracle.compose(rr, sr):
                    problems.append(f"compose {rr} ; {sr}")
        for a, b in itertools.product(objs, repeat=2):
            for r, rr in homs[(a, b)]:
                if relation(view.inv(r)) != oracle.converse(rr):
                    problems.append(f"converse {rr}")
                for s, sr in homs[(a, b)]:
                    if relation(view.meet(r, s)) != rr & sr:
                        problems.append(f"meet {rr} /\\ {sr}")
        return problems


class Keyless(CheckAllegory):
    argv = ["check-allegory", "--category", "thin", "--system", "iso-all",
            "--relation", "simE", "--max-size", "5"]

    def check(self, ctx, raw, report):
        problems = super().check(ctx, raw, report)
        view = ctx.view()
        # a class of spans a <- w -> b in a chain is fixed by its apex w <= min(a, b)
        for a, b in itertools.product(range(5), repeat=2):
            reps, _ = view.hom(a, b)
            if sorted(r.apex for r in reps) != list(range(min(a, b) + 1)):
                problems.append(f"hom({a},{b}): apexes {[r.apex for r in reps]}")
        return problems


# -- the map category, through the library ---------------------------------------

class Maps:
    """Map homs, tabulations and counits of the FinSet surj-inj view over
    the objects 0..3. The seed fixes the order in which the pairs (a, b)
    are visited."""

    def setup(self, seed):
        cat = FinSetCategory(3)
        carrier = default_carrier(cat)
        system = named_system(cat, "surj-inj")
        objs = list(carrier.objects)
        view = allegory.AllegoryView(cat, make_equivalence(cat, "simE", system=system),
                                     objects=objs)
        pairs = list(itertools.product(objs, repeat=2))
        random.Random(seed).shuffle(pairs)
        return view, system, objs, pairs

    def run(self, state):
        view, system, objs, pairs = state
        mc = allegory.map_category(view, system, objs)
        maps = {}
        for a, b in pairs:
            maps[(a, b)] = [(f, mc.classify(f)) for f in mc.hom(a, b)]
        tabs = {}
        for a, b in pairs:
            verdicts = []
            for r in view.hom(a, b)[0]:
                try:
                    tab = allegory.tabulate(view, system, r)
                    verdicts.append(combine([tab.composite, tab.joint_monicity,
                                             tab.f.verdict, tab.g.verdict]))
                except TabulationFailed as exc:
                    verdicts.append(Verdict.no(reason=f"tabulation failed: {exc.equation}"))
            tabs[(a, b)] = verdicts
        counits = {}
        for a, b in pairs:
            if a * b <= 3:
                counits[(a, b)] = allegory.counit_check(
                    view, system, a, b, apexes=range(max(a * b, 1) + 1))
        return maps, tabs, counits

    def report(self, state, raw):
        maps, tabs, counits = raw
        lines = []
        for (a, b), fs in sorted(maps.items()):
            rows = sorted([sorted(relation(f)), tag] for f, tag in fs)
            lines.append({"check": f"maps-{a}-{b}", "verdict": HOLDS, "maps": rows})
        for (a, b), vs in sorted(tabs.items()):
            v = combine(vs)
            lines.append({"check": f"tabulate-{a}-{b}", "verdict": v.outcome,
                          "reason": v.reason or f"{len(vs)} classes"})
        for (a, b), v in sorted(counits.items()):
            lines.append({"check": f"counit-{a}-{b}", "verdict": v.outcome,
                          "reason": v.reason})
        return "\n".join(json.dumps(l, sort_keys=True) for l in lines) + "\n"

    def ops(self, raw):
        maps, tabs, counits = raw
        unknown = sum(combine(vs).unknown for vs in tabs.values())
        unknown += sum(v.unknown for v in counits.values())
        return len(maps) + len(tabs) + len(counits), unknown

    def check(self, state, raw, report):
        view, system, objs, pairs = state
        maps, tabs, counits = raw
        problems = []
        for a, b in itertools.product(objs, repeat=2):
            fs = maps[(a, b)]
            graphs = {oracle.graph(t): t for t in oracle.tables(a, b)}
            if len(fs) != b ** a or {relation(f) for f, _ in fs} != set(graphs):
                problems.append(f"maps({a},{b}): {len(fs)} maps, not the {b ** a} functions")
                continue
            for f, tag in fs:
                t = graphs[relation(f)]
                cover = oracle.surjective(t, b)
                mono = oracle.injective(t)
                if (tag in ("iso", "cover")) != cover or (tag in ("iso", "mono")) != mono:
                    problems.append(f"map {t}: {a}->{b} classified {tag}")
            vs = tabs[(a, b)]
            if len(vs) != 2 ** (a * b) or not combine(vs).holds:
                problems.append(f"tabulate({a},{b}): {len(vs)} classes, {combine(vs)}")
        expected = {(a, b) for a, b in itertools.product(objs, repeat=2) if a * b <= 3}
        if set(counits) != expected:
            problems.append(f"counits ran on {sorted(counits)}")
        for (a, b), v in counits.items():
            if not v.holds or v.reason != f"bijection on {2 ** (a * b)} classes":
                problems.append(f"counit({a},{b}): {v}")
        return problems


# -- the E-bullet repair -----------------------------------------------------------

_FINMOR = re.compile(r"FinMor\((\d+)->(\d+), \[([\d, ]*)\]\)")


def parse_members(line):
    out = set()
    for text in line["sampleSpec"]["members"]:
        dom, cod, table = _FINMOR.fullmatch(text).groups()
        out.add((int(dom), int(cod), tuple(int(x) for x in table.split(",") if x.strip())))
    return out


# system -> the names of its E and M classes
REPAIR_SYSTEMS = {"surj-inj": ("surjective", "injective"), "iso-all": ("isos", "all"),
                  "all-iso": ("all", "isos")}


class Repair:
    """`spanalg ebullet --max-size 3` for each FinSet system in turn."""

    def setup(self, seed):
        return [cli_context(["ebullet", "--category", "finset", "--system", s,
                             "--max-size", "3", "--seed", str(seed), "--format", "json"])
                for s in REPAIR_SYSTEMS]

    def run(self, ctxs):
        return [cli_run(ctx) for ctx in ctxs]

    def report(self, ctxs, raw):
        return "".join(text for _, text in raw)

    def ops(self, raw):
        lines = [l for _, text in raw for l in report_lines(text)]
        return len(lines), count_unknown(lines)

    def check(self, ctxs, raw, report):
        problems = []
        mors = oracle.carrier(3)
        surj = {f for f in mors if oracle.surjective(f[2], f[1])}
        members = {"surjective": surj, "all": mors,
                   "isos": {f for f in mors if f[0] == f[1] and oracle.injective(f[2])}}
        for (name, (e_name, m_name)), (code, text) in zip(REPAIR_SYSTEMS.items(), raw):
            expected = ["system-valid", f"class-({m_name})*", f"class-({e_name})_o",
                        f"class-({e_name})_bullet", "ecirc-included-in-ebullet"]
            lines = report_lines(text)
            bad = verdict_problems(lines, expected) + ([] if code == 0 else [f"exit {code}"])
            if bad:
                problems += [f"{name}: {p}" for p in bad]
                continue
            e = members[e_name]
            mstar, e_circ, e_bullet = (parse_members(l) for l in lines[1:4])
            # E_o is the least stable system holding E and the split epis
            # (the surjections); E and the surjections are closed already
            if e_circ != e | surj:
                problems.append(f"{name}: E_o has {len(e_circ)} members, not E + surjections")
            if name != "iso-all":
                # M is monic, so by the paper's theorem E_bullet = E
                if e_bullet != e:
                    problems.append(f"{name}: E_bullet != E although M is monic")
                continue
            if not (e | mstar) <= e_bullet:
                problems.append(f"{name}: E_bullet misses part of E + M*")
            if not all(oracle.injective(f[2]) for f in e_bullet):
                problems.append(f"{name}: E_bullet holds a non-injection")
            for f, g in itertools.product(e_bullet, repeat=2):
                if f[1] == g[0] and oracle.fcompose(g, f) not in e_bullet:
                    problems.append(f"{name}: E_bullet not closed under {g} after {f}")
            for f, g in itertools.product(e_bullet, mors):
                if f[1] == g[1] and oracle.pullback_leg(f, g) not in e_bullet:
                    problems.append(f"{name}: E_bullet not closed under pulling {f} back along {g}")
        return problems


WORKLOADS = {"laws-keyed": LawsKeyed(), "keyless": Keyless(), "maps": Maps(),
             "repair": Repair()}
