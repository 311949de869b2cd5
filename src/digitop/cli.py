"""Command-line front end.

Verbs: hyperspace, check, verify, girth, dominate, metrics, export-dot.
Exit codes: 0 success, 1 verification/check failure, 2 usage or parse
error, 3 resource limit exceeded, 4 internal error (a witness failed its
re-validation, or an output held a value the JSON writer does not take).
Every ``--format json`` document comes from one writer, ``_dumps``, whose
bytes are those of ``json.dumps(value, indent=2)``.  ``check`` hands it each
map witness (a homotopy's slices, the egs generator, the inducing map) as
the ``FiniteFunction`` itself, which it writes from the map's value row with
the bytes of ``function_to_json``'s document; the text form's ``witness:``
line is ``json.dumps`` of the same value, each map turned into that document.
Each verb takes only the ``--budget-*`` flags it reads (``BUDGETS``).  The
library returns vertex indices, witnesses included; only the CLI names them,
from the points, member masks and map rows of the space.  A member's text,
in a hyperspace document or a printed name, is its prefix's text (the member
less its highest point) and that point's text, memoised per mask.
``build_parser()`` is the one declaration of the command line.  A
well-formed command line of a verb whose options each take one value is
read from that verb's option table, taken once from the shared parser's
actions (``_read``); every other one, and every error and help request,
goes to the shared parser's ``parse_args``, so namespaces, exits and
messages are those of ``build_parser().parse_args``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import graphmetrics as gm
from .errors import BudgetError, InternalError
from .functions import (FiniteFunction, continuity_counterexample, family_function_from_json,
                        function_from_json, function_to_json, is_isomorphism, is_retraction,
                        find_inducing_map, pair_from_json)
from .homotopy import (DEFAULT_FUNCTION_BUDGET, PHI, PSI, build_function_graph, homotopic,
                       is_contractible, phi_counterexample, psi_counterexample,
                       strongly_homotopic, verify_homotopy)
from .hyperspace import DEFAULT_POINT_BUDGET, SubsetFamily, family_of, hyperspace_graph
from .lattice import DigitalImage, image_from_json
from .multivalued import (DEFAULT_SUBDIVISION_BUDGET, generates, has_weak_continuity,
                          is_connectivity_preserving, is_egs_continuous,
                          multifunction_from_json, strong_continuity_counterexample,
                          Subdivision)
from .verify import SUITES, run_suites

CHECKS = (
    "continuity", "isomorphism", "retraction",
    "phi-adjacent", "psi-adjacent", "homotopic", "strongly-homotopic",
    "contractible", "weak-continuity", "strong-continuity",
    "connectivity-preserving", "egs-continuous", "induced-by",
)


class _ParseError(ValueError):
    """A document the JSON decoder gave up on without a JSONDecodeError."""


def _load(path: str) -> dict:
    """The JSON document in the file at ``path``, read as strict UTF-8.

    The bytes are decoded once, and CR and CRLF line ends become LF as in
    text mode, so a parse error reports the line and column it always did.
    """
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise _ParseError(str(exc)) from None


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dumps(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for the values the CLI writes.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder; this writes
    the same layout in fewer steps.  It takes dicts with str keys, lists,
    tuples, str, int, bool and None, and raises InternalError on anything
    else: the CLI builds no other value, so one would be a bug, not input.
    A list, tuple or str-keyed dict whose values are all ints (bools are
    not) writes them with ``int.__repr__``, not one ``write`` call each.

    Two values are written as the documents the library would build from them:

    - ``_Members`` is written as its list of point lists: each point's text
      once, at its depth, and each member's text joined from its points'
      texts in ascending bit order.
    - A ``FiniteFunction`` is written as ``function_to_json(f)``'s
      document.  Per (domain, codomain, depth) the writer builds each
      image's document text once, each point's text once (shared by the
      image's ``points`` and the pairs), and each (x, f(x)) pair's text on
      first use, so a map is one join over its value row.  The tables are keyed by the
      identity of the map's images, which the document keeps alive.
    """
    images: dict[tuple[int, int], tuple[str, list[str]]] = {}
    maps: dict[tuple[int, int, int], tuple[str, str, _Texts, str]] = {}

    def write(v, depth: int) -> str:
        kind = type(v)
        if kind is list or kind is tuple:
            return write_items(v, depth)
        if kind is dict:
            return write_fields(v, depth)
        if kind is str:
            return encode_basestring_ascii(v)
        if kind is int:
            return int.__repr__(v)
        if v is None:
            return "null"
        if kind is bool:
            return "true" if v else "false"
        if kind is FiniteFunction:
            return write_map(v, depth)
        if kind is _Members:
            return write_members(v, depth)
        raise InternalError(f"cannot write a {kind.__name__} as JSON")

    def join(open_: str, texts, close: str, depth: int) -> str:
        inner = "\n" + "  " * (depth + 1)
        return open_ + inner + ("," + inner).join(texts) + "\n" + "  " * depth + close

    def write_fields(v, depth: int) -> str:
        if not v:
            return "{}"
        if all(type(x) is int for x in v.values()) and all(type(k) is str for k in v):
            return join("{", map(": ".join, zip(map(encode_basestring_ascii, v),
                                                map(int.__repr__, v.values()))), "}", depth)
        fields = []
        for k, x in v.items():
            if type(k) is not str:
                raise InternalError(f"cannot write a {type(k).__name__} key as JSON")
            fields.append(encode_basestring_ascii(k) + ": " + write(x, depth + 1))
        return join("{", fields, "}", depth)

    def write_items(v, depth: int) -> str:
        if not v:
            return "[]"
        if all(type(x) is int for x in v):
            return join("[", map(int.__repr__, v), "]", depth)
        return join("[", [write(x, depth + 1) for x in v], "]", depth)

    def write_image(X: DigitalImage, depth: int) -> tuple[str, list[str]]:
        """``image_to_json(X)``'s text at ``depth``, and its points' texts."""
        key = (id(X), depth)
        got = images.get(key)
        if got is None:
            # a point is a nonempty tuple of ints
            inner = "\n" + "  " * (depth + 3)
            open_, sep, close = "[" + inner, "," + inner, "\n" + "  " * (depth + 2) + "]"
            points = [open_ + sep.join(map(int.__repr__, p)) + close for p in X.points]
            got = images[key] = (join("{", (
                '"dim": ' + write(X.dim, depth + 1),
                '"adjacency": ' + encode_basestring_ascii(f"c{X.adjacency}"),
                '"points": ' + join("[", points, "]", depth + 1)), "}", depth), points)
        return got

    def write_map(f, depth: int) -> str:
        key = (id(f.domain), id(f.codomain), depth)
        table = maps.get(key)
        if table is None:
            (domain, xs), (codomain, ys) = (write_image(f.domain, depth + 1),
                                            write_image(f.codomain, depth + 1))
            inner, pair, point = ("\n" + "  " * (depth + k) for k in (1, 2, 3))
            table = maps[key] = (
                "{" + inner + '"domain": ' + domain + "," + inner + '"codomain": ' + codomain
                + "," + inner + '"pairs": [' + pair,
                "," + pair,
                _Texts(lambda xy: "[" + point + xs[xy[0]] + "," + point + ys[xy[1]] + pair + "]"),
                inner + "]\n" + "  " * depth + "}")
        head, sep, pairs, tail = table
        return head + sep.join(map(pairs.__getitem__, enumerate(f.row))) + tail

    def write_members(v: _Members, depth: int) -> str:
        if not v.masks:
            return "[]"
        inner, point = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
        text = _member_texts([write(p, depth + 2) for p in v.points], "," + point)
        # each member is "[" + point + its text + inner + "]", between "," + inner
        open_, close = "[" + point, inner + "]"
        return ("[" + inner + open_ + (close + "," + inner + open_).join(map(text, v.masks))
                + close + "\n" + "  " * depth + "]")

    return write(value, 0)


class _Texts(dict):
    """Texts keyed by what they are built from: a missing key's text is
    ``build(key)``, built on first use and kept."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        text = self[key] = self.build(key)
        return text


class _Members:
    """Members of a family as bit masks over ``points``, the image's sorted
    points: ``_dumps`` writes each mask as the list of its points in ascending bit order."""

    __slots__ = ("points", "masks")

    def __init__(self, points: tuple, masks: tuple[int, ...]):
        self.points, self.masks = points, masks


def _point_names(image: DigitalImage) -> list[str]:
    """Each point's printed name: its one coordinate, or ``(x,y,...)``."""
    return [str(p[0]) if len(p) == 1 else "(" + ",".join(map(str, p)) + ")"
            for p in image.points]


def _member_texts(points: list[str], sep: str):
    """``text(mask)``: the texts of a nonempty mask's points in ascending bit
    order, joined by ``sep``.

    A mask's text is the text of its prefix (the mask less its highest
    point), then ``sep``, then that point's text.  Texts are memoised per
    mask, so along ascending masks a member whose prefix is a member costs
    one lookup and one join.  A new prefix is walked down in a loop, not by
    recursion: a mask may have more points than the recursion limit has
    frames.
    """
    memo = {1 << i: p for i, p in enumerate(points)}

    def text(mask: int) -> str:
        t = memo.get(mask)
        if t is None:
            top = mask.bit_length() - 1
            head = memo.get(mask ^ 1 << top)
            if head is None:
                # down to the longest prefix with a text, then back up
                chain, prefix = [], mask ^ 1 << top
                while head is None:
                    chain.append(prefix)
                    prefix ^= 1 << (prefix.bit_length() - 1)
                    head = memo.get(prefix)
                for m in reversed(chain):
                    head = memo[m] = head + sep + points[m.bit_length() - 1]
            t = memo[mask] = head + sep + points[top]
        return t

    return text


def _member_names(family, points: list[str]):
    """``name(i)``: member i's point names in ascending bit order, in braces."""
    masks, text = family.masks, _member_texts(points, ",")
    return lambda i: "{" + text(masks[i]) + "}"


def _view_space(args):
    """The view's vertex space (the image, a family or a function graph), and
    ``name(i)``, the printed name of its vertex i: an image point, a
    member's points, or ``[x>y ...]`` over a map's domain."""
    image = image_from_json(_load(args.input))
    points, view = _point_names(image), args.view
    if view == "image":
        return image, points.__getitem__
    if view == "functions":
        codomain = image_from_json(_load(args.codomain)) if args.codomain else image
        space = build_function_graph(image, codomain, args.flavor, args.budget_functions)
        values, rows = _point_names(codomain), space.rows
        name = lambda i: "[" + " ".join(f"{points[x]}>{values[y]}"
                                        for x, y in enumerate(rows[i])) + "]"
        return space, name
    # family_of refuses any view but full and connected
    space = hyperspace_graph(family_of(image, view, args.budget_hyperspace))
    return space, _member_names(space, points)


def _view_graph(args):
    """The view's graph, and ``name(i)`` as ``_view_space`` gives it."""
    space, name = _view_space(args)
    return gm.as_finite_graph(space), name


def cmd_hyperspace(args) -> int:
    image = image_from_json(_load(args.input))
    family = hyperspace_graph(family_of(image, args.kind, args.budget_hyperspace))
    if args.format == "dot":
        _emit(args, gm.to_dot(gm.as_finite_graph(family),
                              labels=_member_names(family, _point_names(image))))
    elif args.format == "json":
        _emit(args, _dumps({
            "kind": args.kind,
            "vertices": len(family),
            "edges": family.edge_count,
            "members": _Members(image.points, family.masks),
        }) + "\n")
    else:
        _emit(args, f"kind: {args.kind}\nvertices: {len(family)}\nedges: {family.edge_count}\n")
    return 0


def _run_check(name: str, doc: dict, args):
    """Returns (verdict, witness-json-value)."""
    if name == "continuity":
        f = function_from_json(doc)
        pair = continuity_counterexample(f)
        xs = f.domain.points
        return pair is None, None if pair is None else {"x": xs[pair[0]], "x_prime": xs[pair[1]]}
    if name == "isomorphism":
        return is_isomorphism(function_from_json(doc)), None
    if name == "retraction":
        f = function_from_json(doc)
        return is_retraction(f, f.codomain.points), None
    if name in ("phi-adjacent", "psi-adjacent", "homotopic", "strongly-homotopic"):
        f, g = pair_from_json(doc)
        xs = f.domain.points
        # adjacency is "distinct and no counterexample", so each is read once
        if name == "phi-adjacent":
            x = phi_counterexample(f, g)
            if x is not None:
                return False, {"x": xs[x]}
            return (True, None) if f != g else (False, {"equal": True})
        if name == "psi-adjacent":
            bad = psi_counterexample(f, g)
            if bad is not None:
                return False, {"x0": xs[bad[0]], "x1": xs[bad[1]]}
            return (True, None) if f != g else (False, {"equal": True})
        decide = homotopic if name == "homotopic" else strongly_homotopic
        table = decide(f, g, budget=args.budget_functions)
        if table is None:
            return False, None
        mode = "plain" if name == "homotopic" else "strong"
        if not verify_homotopy(table, f, g, mode=mode):
            raise InternalError("witness failed re-validation")
        return True, {"m": table.m, "slices": list(table.slices)}
    if name == "contractible":
        return is_contractible(image_from_json(doc), args.budget_functions), None
    if name in ("weak-continuity", "strong-continuity", "connectivity-preserving",
                "egs-continuous"):
        F = multifunction_from_json(doc)
        if name == "weak-continuity":
            return has_weak_continuity(F), None
        if name == "strong-continuity":
            bad = strong_continuity_counterexample(F)
            xs = F.domain.points
            return bad is None, None if bad is None else {
                "x": xs[bad[0]], "y": xs[bad[1]], "unmatched": F.codomain.points[bad[2]]}
        if name == "connectivity-preserving":
            return is_connectivity_preserving(F), None
        result = is_egs_continuous(F, args.r_max, args.budget_subdivision)
        if result is None:
            return False, {"r_max": args.r_max}
        if not generates(result.generator, F, Subdivision(F.domain, result.r)):
            raise InternalError("generator failed re-validation")
        return True, {"r": result.r, "generator": result.generator}
    if name == "induced-by":
        F = family_function_from_json(doc)
        f = find_inducing_map(F)
        return f is not None, f
    raise ValueError(f"unknown check {name!r}")


def cmd_check(args) -> int:
    verdict, witness = _run_check(args.name, _load(args.input), args)
    if args.format == "json":
        _emit(args, _dumps({"check": args.name, "verdict": verdict, "witness": witness}) + "\n")
    else:
        lines = [f"{args.name}: {'true' if verdict else 'false'}"]
        if witness is not None:
            lines.append(f"witness: {json.dumps(witness, default=function_to_json)}")
        _emit(args, "\n".join(lines) + "\n")
    return 0 if verdict else 1


def cmd_verify(args) -> int:
    results = run_suites(args.suite, seed=args.seed,
                         max_points=args.max_points, samples=args.samples)
    lines = [r.line() for r in results]
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed (seed {args.seed})")
    _emit(args, "\n".join(lines) + "\n")
    return 0 if failed == 0 else 1


def cmd_girth(args) -> int:
    graph, name = _view_graph(args)
    short = gm.girth(graph)
    longest = gm.longest_cycle(graph, args.budget_cycle)
    for witness in (short, longest):
        if witness is not None and not gm.is_valid_cycle(graph, witness.vertices):
            raise InternalError("cycle witness failed re-validation")

    def cycle_doc(w):
        if w is None:
            return None
        return {"length": w.length, "vertices": [name(v) for v in w.vertices]}

    if args.format == "json":
        _emit(args, _dumps({"girth": cycle_doc(short), "long_cycle": cycle_doc(longest)}) + "\n")
    else:
        if short is None:
            _emit(args, "acyclic\n")
        else:
            _emit(args, f"girth: {short.length}\nlong cycle: {longest.length}\n"
                        f"long cycle witness: "
                        f"{' '.join(map(name, longest.vertices))}\n")
    return 0


def cmd_dominate(args) -> int:
    graph, name = _view_graph(args)
    best = gm.minimum_dominating_set(graph, args.budget_dominating)
    if not gm.is_dominating(best, graph):
        raise InternalError("dominating set failed re-validation")
    names = [name(v) for v in sorted(best)]
    if args.format == "json":
        _emit(args, _dumps({"size": len(best), "vertices": names}) + "\n")
    else:
        _emit(args, f"minimum dominating set size: {len(best)}\nmembers: {' '.join(names)}\n")
    return 0


def cmd_metrics(args) -> int:
    space, name = _view_space(args)
    graph = gm.as_finite_graph(space)
    # a hyperspace's eccentricities start from the bounds the base gives them
    bounds = space.eccentricity_bounds() if isinstance(space, SubsetFamily) else None
    if bounds is not None:
        gm.seed_eccentricities(graph, *bounds)
    if args.format == "csv":
        _emit(args, gm.metrics_csv(graph, labels=name))
        return 0
    rad, diam = gm.radius(graph), gm.diameter(graph)
    ctr = sorted(gm.center(graph))
    if args.format == "json":
        _emit(args, _dumps({
            "vertices": graph.n,
            "edges": graph.edge_count,
            "radius": rad,
            "diameter": diam,
            "center": [name(v) for v in ctr],
            "eccentricity": dict(zip(map(str, range(graph.n)), graph.eccentricities)),
        }) + "\n")
    else:
        _emit(args, f"vertices: {graph.n}\nedges: {graph.edge_count}\n"
                    f"radius: {rad}\ndiameter: {diam}\n"
                    f"center: {' '.join(map(name, ctr))}\n")
    return 0


def cmd_export_dot(args) -> int:
    graph, name = _view_graph(args)
    highlight = None
    if args.highlight == "girth":
        highlight = gm.girth(graph)
    elif args.highlight == "long-cycle":
        highlight = gm.longest_cycle(graph, args.budget_cycle)
    if highlight is not None and not gm.is_valid_cycle(graph, highlight.vertices):
        raise InternalError("cycle witness failed re-validation")
    _emit(args, gm.to_dot(graph, highlight=highlight, labels=name))
    return 0


def _positive_int(text: str) -> int:
    """An argparse type: a positive integer, else a usage error (exit 2)."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


#: Every ``--budget-NAME`` flag: NAME -> (default, help).  A verb takes the ones it reads.
BUDGETS = {
    "hyperspace": (DEFAULT_POINT_BUDGET, "max image points for hyperspace enumeration"),
    "functions": (DEFAULT_FUNCTION_BUDGET,
                  "max raw table count #Y^#X for function enumeration, and max continuous "
                  "rows one homotopy or contractibility search generates, a row counted "
                  "once per expanded map it is adjacent or equal to; a homotopy search "
                  "never generates the level where its two ends meet, and for ends two "
                  "steps apart generates only the rows adjacent to both, each counted once"),
    "cycle": (gm.DEFAULT_CYCLE_BUDGET, "max vertices for the long-cycle search"),
    "dominating": (gm.DEFAULT_DOMINATING_BUDGET, "max vertices for the dominating-set search"),
    "subdivision": (DEFAULT_SUBDIVISION_BUDGET, "max subdivision points for the generator search"),
}


def _add_common(p: argparse.ArgumentParser, budgets: tuple[str, ...],
                formats=("text", "json")) -> None:
    p.add_argument("--input", required=True, help="path to the JSON input document")
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--output", help="write to this path instead of stdout")
    for name in budgets:
        default, text = BUDGETS[name]
        p.add_argument(f"--budget-{name}", type=_positive_int, default=default, help=text)


def _add_view(p: argparse.ArgumentParser) -> None:
    p.add_argument("--view", choices=("image", "full", "connected", "functions"),
                   default="image", help="which graph of the image to analyze")
    p.add_argument("--flavor", choices=(PHI, PSI), default=PHI,
                   help="edge rule for the functions view")
    p.add_argument("--codomain", help="codomain image JSON for the functions view")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitop",
        description="Exact workbench for digital images, hyperspaces, "
                    "function graphs and their graph metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hyperspace", help="enumerate a hyperspace and report its graph")
    _add_common(p, ("hyperspace",), formats=("text", "json", "dot"))
    p.add_argument("--kind", choices=("full", "connected"), default="connected")
    p.set_defaults(func=cmd_hyperspace)

    p = sub.add_parser("check", help="run a named check on a JSON document")
    p.add_argument("name", choices=CHECKS)
    _add_common(p, ("functions", "subdivision"))
    p.add_argument("--r-max", type=int, default=4,
                   help="largest subdivision factor for the generator search")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="run the randomized theorem-verification suites")
    p.add_argument("--suite", nargs="+", default=("all",), choices=["all", *SUITES])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-points", type=_positive_int, default=None,
                   help="override the per-suite image size cap")
    p.add_argument("--samples", type=_positive_int, default=None,
                   help="override the per-suite sample count")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_verify)

    for verb, fn, extra, search in (("girth", cmd_girth, (), ("cycle",)),
                                    ("dominate", cmd_dominate, (), ("dominating",)),
                                    ("metrics", cmd_metrics, ("csv",), ()),
                                    ("export-dot", cmd_export_dot, (), ("cycle",))):
        p = sub.add_parser(verb)
        _add_common(p, ("hyperspace", "functions") + search, formats=("text", "json") + extra)
        _add_view(p)
        if verb == "export-dot":
            p.add_argument("--highlight", choices=("girth", "long-cycle"),
                           help="embolden a cycle witness in the DOT output")
        p.set_defaults(func=fn)
    return parser


def _option_table(verb: str, sub: argparse.ArgumentParser) -> tuple | None:
    """``verb``'s table for ``_read``, taken from its subparser's actions: its
    option strings to their actions, its positionals in order, the namespace
    it starts from, and the dests it requires.  None if an action (help
    apart) is not a one-value store, or has a str default that argparse
    would convert with its ``type``."""
    actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
    if not all(type(a) is argparse._StoreAction and a.nargs is None
               and not (isinstance(a.default, str) and a.type is not None) for a in actions):
        return None
    # argparse sets the actions' defaults first and the verb's set_defaults
    # only on dests still unset
    start = {**sub._defaults, **{a.dest: a.default for a in actions}, "command": verb}
    return ({s: a for a in actions for s in a.option_strings},
            tuple(a for a in actions if not a.option_strings), start,
            frozenset(a.dest for a in actions if a.required))


@functools.cache
def _shared_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser of every ``main`` call in this process, built on first use,
    and the option table of each verb ``_read`` takes."""
    parser = build_parser()
    verbs = next(action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction))
    tables = {verb: _option_table(verb, sub) for verb, sub in verbs.items()}
    return parser, {verb: table for verb, table in tables.items() if table is not None}


def _read(table, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace ``parse_args`` gives the verb's ``tokens``, or None
    where the command line is not one ``_read`` takes.

    Each token is an exact option string followed by a value that does not
    start with ``-``, or the verb's next positional.  Each value passes the
    action's ``type``, then its ``choices``, as in argparse; a repeated
    option keeps its last value; every required dest must be given.
    """
    options, positionals, start, required = table
    args = argparse.Namespace()
    values, given, pending, i = vars(args), set(), iter(positionals), 0
    values.update(start)
    while i < len(tokens):
        text = tokens[i]
        action = options.get(text)
        if action is None:
            action = next(pending, None)
            if action is None or text[:1] == "-":
                return None
            i += 1
        else:
            i += 2
            if i > len(tokens) or tokens[i - 1][:1] == "-":
                return None
            text = tokens[i - 1]
        if action.type is not None:
            try:
                text = action.type(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and text not in action.choices:
            return None
        values[action.dest] = text
        given.add(action.dest)
    return args if required <= given else None


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with the same namespace, exit and messages.

    A command line that starts with a verb ``_read`` takes, and that
    ``_read`` reads, is not handed to argparse.  Every other command line
    (help, abbreviations, ``--opt=value``, ``--``, a value that starts with
    ``-``, a token too many or too few, any error) is parsed by the shared
    parser itself.
    """
    parser, tables = _shared_parser()
    table = tables.get(argv[0]) if argv else None
    args = None if table is None else _read(table, argv[1:])
    return parser.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    """Run one ``digitop`` command line and return its exit code.

    ``main`` may be called repeatedly in one process: the calls share one
    parser, built by the first of them, and each parse returns a fresh
    namespace, so no value carries over from one call to the next.
    """
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (json.JSONDecodeError, _ParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
