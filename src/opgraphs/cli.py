"""Command-line surface: reproducible experiments with JSON reports.

Every command echoes the config that produced it; identical configs
with the same seed reproduce the report byte for byte (timing fields
aside).  Exit codes: 0 all checks passed, 2 a finite-backend analog
of a complex-model statement failed (loudly flagged, still a valid
report), 1 usage errors, infeasible requests and crashes.  `main` is
the one place where an exception becomes a report.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from math import prod

from .autgroup import NODE_BUDGET, BudgetExceededError, automorphism_group
from .constructions import (class_size, induced_order, induced_subgroup,
                            orbit_census)
from .counterexamples import (SearchBudgetError, census_certificates,
                              find_rank_only_pair, verify_certificate)
from .graphs import LabeledGraph, johnson_graph, petersen_graph
from .lemmas import (verify_fiber_lift, verify_move_equivalence,
                     verify_obstruction_lemma, verify_swap_lemma,
                     verify_type_action)
from .report import (EXIT_DIVERGENCE, EXIT_ERROR, EXIT_OK, build_report,
                     write_report)
from .serialize import (adjacency_to_dot, graph_to_dot, group_to_json,
                        load_json, load_pair, partition_to_json, save_json)
from .spectral import (ClassSignature, adjacency_slots, coordinate_flag,
                       enumerate_class, invariance_condition, rank_condition)
from .starfield import QI, galois_field

DEFAULTS = {
    "backend": "gf",
    "p": 3,
    "e": 1,
    "sigma": "0,1,2",
    "dims": "1,1,1",
    "seed": 0,
}

LEMMAS = ("a1a2-equiv", "lift", "swap", "obstruction", "johnson-tau")


class CliError(Exception):
    """Usage-level failure; becomes an error report and exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Usage errors become error reports; exit 2 is kept for divergence."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _tokens(name, value):
    if isinstance(value, str):
        return [t for t in value.split(",") if t]
    if not isinstance(value, list):
        raise CliError(f"{name} must be a comma list, got {value!r}")
    return [str(t) for t in value]


def _integer(name, value):
    """An int, or a string spelling one; bools and floats are refused."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise CliError(f"{name} must be an integer, got {value!r}")


def _at_least(low):
    """An argparse `type=`: an integer no smaller than `low`."""

    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value

    return integer


@contextmanager
def _usage_errors():
    """Report a `ValueError` from the field or class checks as bad input."""
    try:
        yield
    except ValueError as e:
        raise CliError(str(e)) from None


def _load_fixture(path):
    try:
        fixture = load_json(path)
    except OSError as e:
        raise CliError(f"cannot read fixture {path}: {e.strerror}") from None
    except ValueError as e:
        raise CliError(f"fixture {path} is not valid JSON: {e}") from None
    if not isinstance(fixture, dict):
        raise CliError(f"fixture {path} must hold a JSON object")
    return fixture


def _resolve(args):
    """Merge explicit flags over fixture-file values over defaults."""
    fixture = _load_fixture(args.fixture) if getattr(args, "fixture", None) else {}

    def pick(name):
        v = getattr(args, name, None)
        if v is None:
            v = fixture.get(name, DEFAULTS.get(name))
        return v

    backend = pick("backend")
    if backend not in ("qi", "gf"):
        raise CliError(f"unknown backend {backend!r}")
    if backend == "qi":
        field = QI
    else:
        with _usage_errors():
            field = galois_field(_integer("p", pick("p")),
                                 _integer("e", pick("e")))
    sigma_tokens = _tokens("sigma", pick("sigma"))
    dims = [_integer("dims", t) for t in _tokens("dims", pick("dims"))]
    seed = _integer("seed", pick("seed"))
    config = {
        "backend": field.descriptor(),
        "sigma": sigma_tokens,
        "dims": dims,
        "seed": seed,
    }
    return field, sigma_tokens, dims, seed, config


def _sigma(field, sigma_tokens):
    with _usage_errors():
        return tuple(field.parse_fixed(t) for t in sigma_tokens)


def _signature(field, sigma_tokens, dims):
    with _usage_errors():
        return ClassSignature(field, _sigma(field, sigma_tokens), tuple(dims))


def _require_finite(field):
    """Class enumeration, and so every class graph, needs a finite field."""
    if not field.is_finite:
        raise CliError("class enumeration requires a finite backend")


def _check_slots(sig, *slots):
    """Given slot indices must be in range and distinct."""
    given = [s for s in slots if s is not None]
    for s in given:
        if not 0 <= s < sig.k:
            raise CliError(f"slot index {s} out of range 0..{sig.k - 1}")
    if len(set(given)) != len(given):
        raise CliError(f"slot indices must be distinct, got {given}")


def _refuse(args, user, *names):
    """An option the command does not read is a usage error."""
    for name in names:
        if getattr(args, name) is not None:
            raise CliError(f"{user} takes no --{name}")


def _check_contraction(sig, i, j):
    """Slots i, j can be merged: valid, distinct, and a third slot is left."""
    if sig.k < 3:
        raise CliError("contraction of a two-slot signature leaves no class")
    _check_slots(sig, i, j)


# ---------------------------------------------------------------------------
# commands


def cmd_enumerate(args):
    field, sigma_tokens, dims, seed, config = _resolve(args)
    _require_finite(field)
    sig = _signature(field, sigma_tokens, dims)
    flags = enumerate_class(sig)
    # the walk raises unless its orbit has the closed-form size
    results = {"vertex_count": len(flags), "orbit_size": len(flags),
               "class_size_closed_form": class_size(sig)}
    if args.dump_flags:
        results["flags"] = [
            [X.to_json() for X in fl.spaces] for fl in flags]
    return config, results, EXIT_OK


def cmd_adjacency(args):
    try:
        a, b = load_pair(args.pair_file)
    except OSError as e:
        raise CliError(
            f"cannot read pair file {args.pair_file}: {e.strerror}") from None
    except (ValueError, TypeError, KeyError) as e:
        raise CliError(f"malformed pair file {args.pair_file}: {e!r}") from None
    config = {
        "pair_file": os.path.basename(args.pair_file),
        "backend": a.signature.field.descriptor(),
        "signature": a.signature.to_json(),
    }
    a1 = rank_condition(a, b)
    a2 = invariance_condition(a, b)
    slots = adjacency_slots(a, b)
    if a1 and a2:
        verdict = "adjacent"
    elif a1:
        verdict = "A1∧¬A2"
    else:
        verdict = "not adjacent"
    match = (slots is not None) == (a1 and a2)
    results = {
        "a1_rank": a1,
        "a2_invariance": a2,
        "type": list(slots) if slots is not None else None,
        "verdict": verdict,
        "conditions_match_geometry": match,
    }
    return config, results, EXIT_OK if match else EXIT_DIVERGENCE


def _compare_partitions(comps, parts):
    """Whether every component lies in one part, and whether they are equal.

    Both arguments are sorted tuples of sorted vertex tuples.
    """
    owner = {v: t for t, part in enumerate(parts) for v in part}
    contained = all(len({owner[v] for v in comp}) == 1 for comp in comps)
    return contained, comps == parts


def cmd_components(args):
    field, sigma_tokens, dims, seed, config = _resolve(args)
    _require_finite(field)
    sig = _signature(field, sigma_tokens, dims)
    if args.type == "ij":
        i = 1 if args.i is None else args.i
        j = 2 if args.j is None else args.j
        _check_contraction(sig, i, j)
    elif args.type == "ibar":
        _refuse(args, "components --type ibar", "j")
        i = 2 if args.i is None else args.i
        _check_slots(sig, i)
    else:
        _refuse(args, "components --type global", "i", "j")
    graph = LabeledGraph.build(sig)
    config["type"] = args.type
    code = EXIT_OK
    if args.type == "global":
        comps = graph.components()
        results = {
            "component_count": len(comps),
            "connected": len(comps) == 1,
            "components": partition_to_json(comps),
        }
        if not results["connected"]:
            code = EXIT_DIVERGENCE
    elif args.type == "ij":
        config["slots"] = [i, j]
        comps = graph.ij_components(i, j)
        fibers = graph.fiber_partition(i, j)
        contained, equal = _compare_partitions(comps, fibers)
        results = {
            "slot_pair": [i, j],
            "component_count": len(comps),
            "component_sizes": sorted({len(c) for c in comps}),
            "fiber_count": len(fibers),
            "fiber_sizes": sorted({len(p) for p in fibers}),
            "every_component_in_a_fiber": contained,
            "components_equal_fibers": equal,
            "components": partition_to_json(comps),
        }
        if not (contained and equal):
            code = EXIT_DIVERGENCE
    else:  # ibar
        config["slot"] = i
        comps = graph.avoiding_components(i)
        blocks = graph.eigenspace_blocks(i)
        contained, equal = _compare_partitions(comps, blocks)
        results = {
            "slot": i,
            "component_count": len(comps),
            "block_count": len(blocks),
            "every_component_in_a_block": contained,
            "components_equal_blocks": equal,
            "components": partition_to_json(comps),
        }
        if not (contained and equal):
            code = EXIT_DIVERGENCE
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(graph_to_dot(graph))
    return config, results, code


def _search_counters(group):
    """The automorphism search's work: nodes used against --budget, and
    the first-path orbit lengths whose product is the order."""
    return {"search_nodes": group.nodes,
            "first_path_orbits": list(group.orbit_sizes)}


def _budget_exhausted(config, results, args, e):
    """The error report of a search that ran out of --budget: the config
    with the budget, what was computed before, and the nodes searched."""
    config["budget"] = args.budget
    results.update(error=str(e), search_nodes=e.nodes)
    return config, results, EXIT_ERROR


def cmd_automorphisms(args):
    code = EXIT_OK
    if args.graph != "johnson":
        _refuse(args, f"automorphisms --graph {args.graph}", "n")
    if args.graph in ("petersen", "johnson"):
        if args.compare_induced:
            raise CliError("--compare-induced needs --graph class")
        _refuse(args, f"automorphisms --graph {args.graph}", "backend", "p",
                "e", "sigma", "dims", "fixture", "seed")
        if args.graph == "petersen":
            g = petersen_graph()
            config = {"graph": "petersen"}
        else:
            n = 4 if args.n is None else args.n
            g = johnson_graph(n)
            config = {"graph": "johnson", "n": n}
        try:
            group = automorphism_group(g.adjlist, node_budget=args.budget)
        except BudgetExceededError as e:
            return _budget_exhausted(config, {}, args, e)
        results = {
            "vertex_count": len(g.adjlist),
            "automorphism_order": str(group.order()),
            "generator_count": len(group.generators()),
            **_search_counters(group),
        }
        if args.generators_out:
            save_json(args.generators_out,
                      group_to_json(group.order(), group.generators()))
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(adjacency_to_dot(g.adjlist, g.labels))
        return config, results, code

    field, sigma_tokens, dims, seed, config = _resolve(args)
    _require_finite(field)
    sig = _signature(field, sigma_tokens, dims)
    graph = LabeledGraph.build(sig)
    results = {"vertex_count": graph.n,
               "edge_count": sum(map(len, graph.adjacency())) // 2}
    try:
        group, gens = induced_subgroup(graph, node_budget=args.budget)
    except BudgetExceededError as e:
        return _budget_exhausted(config, results, args, e)
    aut = group.order()
    results["automorphism_order"] = str(aut)
    results.update(_search_counters(group))
    if args.compare_induced:
        ind = prod(group.known_orbit_sizes)
        results.update(
            induced_order=str(ind),
            induced_order_closed_form=str(induced_order(sig)),
            induced_generator_count=len(gens),
            known_orbits=list(group.known_orbit_sizes),
            index_of_induced=aut // ind, induced_equals_full=aut == ind)
    if args.generators_out:
        save_json(args.generators_out, group_to_json(aut, group.generators()))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(graph_to_dot(graph))
    return config, results, code


def cmd_verify_lemma(args):
    field, sigma_tokens, dims, seed, config = _resolve(args)
    config["lemma"] = args.lemma
    if args.lemma != "lift":
        _refuse(args, f"verify-lemma --lemma {args.lemma}", "i", "j")
    if args.lemma == "a1a2-equiv":
        sig = _signature(field, sigma_tokens, dims)
        results = verify_move_equivalence(sig, samples=args.samples, seed=seed)
    elif args.lemma == "lift":
        sig = _signature(field, sigma_tokens, dims)
        if (args.i is None) != (args.j is None):
            raise CliError("lift takes both --i and --j, or neither")
        _check_contraction(sig, args.i, args.j)
        results = verify_fiber_lift(sig, args.i, args.j)
    elif args.lemma == "swap":
        if args.dims is not None and dims != [1, 1, 1, 1]:
            raise CliError("the swap move runs on dims 1,1,1,1")
        if args.sigma is None:
            # the default swap class: the first four fixed elements, or
            # 1..4 over Q(i)
            if field.is_finite and len(field.fixed_elements()) < 4:
                raise CliError("four distinct fixed eigenvalues do not exist")
            sigma_tokens = list("0123" if field.is_finite else "1234")
        sigma = _sigma(field, sigma_tokens)
        if len(sigma) != 4 or len(set(sigma)) < 4:
            raise CliError(
                "the swap move needs exactly four distinct eigenvalues")
        config["sigma"], config["dims"] = sigma_tokens, [1, 1, 1, 1]
        results = verify_swap_lemma(field, sigma=sigma)
    elif args.lemma == "obstruction":
        sig = _signature(field, sigma_tokens, dims)
        _check_slots(sig, 0, 1, 2)
        results = verify_obstruction_lemma(sig)
    else:  # johnson-tau
        sig = _signature(field, sigma_tokens, dims)
        try:
            results = verify_type_action(sig if field.is_finite else None,
                                         node_budget=args.budget)
        except BudgetExceededError as e:
            return _budget_exhausted(config, {}, args, e)
    if results.get("mode") == "unavailable":
        raise CliError(results.get("reason", "lemma unavailable here"))
    code = EXIT_OK if results.get("holds") else EXIT_DIVERGENCE
    return config, results, code


def cmd_counterexample(args):
    field, sigma_tokens, dims, seed, config = _resolve(args)
    sig = _signature(field, sigma_tokens, dims)
    if sig.k < 3:
        raise CliError(
            "a rank-two difference with two eigenvalues always has "
            "invariant image and kernel; no counterexample can exist")
    config["budget"] = args.budget
    config["limit"] = args.limit
    if field.is_finite:
        census = orbit_census(sig, limit=args.limit)
        results = {
            "mode": "exhaustive",
            "total_pairs": census.total,
            "adjacent_count": census.adjacent_count,
            "rank_other_count": census.rank_other,
            "rank_only_count": census.rank_only_count,
            "condition_mismatches": census.mismatch_count,
            **census.work_counters(),
        }
        if census.mismatch_count:
            return config, results, EXIT_DIVERGENCE
        if census.rank_only_count == 0:
            results["outcome"] = "exhaustively none"
            return config, results, EXIT_OK
        certs = census_certificates(census.flags, census, limit=args.limit)
        checks = [verify_certificate(field, c) for c in certs]
        results["outcome"] = "certified"
        results["certificates"] = certs
        results["verification"] = checks
        ok = all(c["ok"] for c in checks)
        return config, results, EXIT_OK if ok else EXIT_DIVERGENCE
    if sig.dims != (1, 1, 1):
        raise CliError(
            "the targeted perturbation needs three one-dimensional slots")
    base = coordinate_flag(sig)
    try:
        found, cert = find_rank_only_pair(
            base, seed=seed, attempts=args.budget)
    except SearchBudgetError as e:
        results = {"mode": "randomized", "outcome": "budget-exhausted",
                   "attempts": args.budget, "error": str(e)}
        return config, results, EXIT_ERROR
    checks = verify_certificate(field, cert)
    results = {
        "mode": "randomized",
        "outcome": "certified",
        "certificate": cert,
        "verification": checks,
    }
    return config, results, EXIT_OK if checks["ok"] else EXIT_DIVERGENCE


# ---------------------------------------------------------------------------
# wiring


def _add_common(sub):
    sub.add_argument("--backend", choices=("qi", "gf"))
    sub.add_argument("--p", type=int, help="characteristic (gf backend)")
    sub.add_argument("--e", type=int,
                     help="fixed field GF(p^e) inside GF(p^2e)")
    sub.add_argument("--sigma",
                     help="comma list; rationals for qi, fixed-subfield "
                          "indices for gf")
    sub.add_argument("--dims", help="comma list of eigenspace dimensions")
    sub.add_argument("--fixture", help="config JSON supplying defaults")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out", help="also write the report here")


def build_parser():
    parser = _Parser(
        prog="opgraphs",
        description="Adjacency graphs of conjugacy classes of "
                    "self-adjoint operators: enumeration, adjacency "
                    "verdicts, components, automorphisms, and verified "
                    "structure moves.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("enumerate", help="count (and dump) the class")
    _add_common(p)
    p.add_argument("--dump-flags", action="store_true")
    p.set_defaults(run=cmd_enumerate)

    p = subs.add_parser("adjacency", help="classify one pair of flags")
    p.add_argument("--pair-file", required=True,
                   help="pair JSON (see serialize.save_pair)")
    p.add_argument("--out", help="also write the report here")
    p.set_defaults(run=cmd_adjacency)

    p = subs.add_parser("components", help="component partitions")
    _add_common(p)
    p.add_argument("--type", choices=("ij", "ibar", "global"), default="ij")
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--dot", help="write DOT here")
    p.set_defaults(run=cmd_components)

    p = subs.add_parser("automorphisms", help="exact automorphism group")
    _add_common(p)
    p.add_argument("--graph", choices=("class", "petersen", "johnson"),
                   default="class")
    p.add_argument("--n", type=_at_least(2),
                   help="johnson parameter (default 4)")
    p.add_argument("--compare-induced", action="store_true")
    p.add_argument("--budget", type=_at_least(1), default=NODE_BUDGET,
                   help="search tree node budget")
    p.add_argument("--generators-out", help="write the group JSON here")
    p.add_argument("--dot", help="write DOT here")
    p.set_defaults(run=cmd_automorphisms)

    p = subs.add_parser("verify-lemma", help="check one structure move")
    _add_common(p)
    p.add_argument("--lemma", choices=LEMMAS, required=True)
    p.add_argument("--samples", type=_at_least(1), default=40,
                   help="sampled instances on infinite backends")
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--budget", type=_at_least(1), default=NODE_BUDGET,
                   help="search tree node budget")
    p.set_defaults(run=cmd_verify_lemma)

    p = subs.add_parser("counterexample",
                        help="rank-two pairs that fail invariance")
    _add_common(p)
    p.add_argument("--budget", type=_at_least(1), default=200,
                   help="attempt budget for the randomized search")
    p.add_argument("--limit", type=_at_least(0), default=3,
                   help="certificates to emit from an exhaustive census")
    p.set_defaults(run=cmd_counterexample)
    return parser


def main(argv=None):
    """Run one command; every outcome but `--help` is one JSON report.

    A `CliError` is reported by its message, any other exception as
    `<Type>: message`, both with exit code 1.  When `--out` cannot be
    written, the error report goes to stdout only.
    """
    start = time.time()
    command = out = None
    # n! of a complete class graph outgrows the default 4300 digits
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        command, out = args.command, args.out
        config, results, code = args.run(args)
        report = build_report(command, config, results, time.time() - start)
        sys.stdout.write(write_report(report, out))
        return code
    except Exception as e:
        error = (str(e) if isinstance(e, CliError)
                 else f"{type(e).__name__}: {e}")
        report = build_report(command, {}, {"error": error},
                              time.time() - start)
        try:
            text = write_report(report, out)
        except OSError:
            text = write_report(report)
        sys.stdout.write(text)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
