"""Command-line surface.

One subcommand per module; every report is a single JSON object (or a
plain/csv rendering of it) that embeds the truncation bounds used, so
no output can be read as an infinitary claim.

Exit codes: 0 found/pass, 1 exhausted/closed/inconsistent, 2 usage
error, 3 budget exceeded or oracle undecided, 4 internal error (an
unexpected exception; never read as a negative answer).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import (
    BudgetExceeded,
    HorizonExceeded,
    OracleUndecided,
    OrdinalParseError,
    ReductionMismatch,
    SchramseyError,
)

if TYPE_CHECKING:
    from . import verify, words

# Layer modules are imported by the parsers and handlers that use them,
# so a job loads only the layers its subcommand runs.

SCHEMA_VERSION = 1

EXIT_FOUND = 0
EXIT_EXHAUSTED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _parse_finset(text: str):
    body = text.strip().strip("{}")
    if not body:
        return ()
    return tuple(int(x) for x in body.split(","))


def _parse_alphabet(text: str) -> words.Alphabet:
    from . import words

    return words.Alphabet(tuple(text))


def _parse_seq(text: str, alph: words.Alphabet):
    from . import words

    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    if not body:
        return ()
    return tuple(words.word(part.strip(), alph) for part in body.split(","))


def _parse_stream(text: str, alph: words.Alphabet) -> words.VarWordStream:
    from . import words

    kind, _, rest = text.partition(":")
    if kind == "e":
        return words.upsilon_stream(alph, int(rest))
    if kind == "list":
        items = rest.split(",")
        return words.VarWordStream(alph, tuple(words.word(t, alph) for t in items))
    if kind == "pat":
        spec, _, horizon = rest.rpartition(":")
        head_s, _, repeat_s = spec.partition(";")
        head = head_s.split(",") if head_s else []
        repeat = repeat_s.split(",") if repeat_s else []
        return words.pattern_stream(alph, head, repeat, int(horizon))
    raise ValueError(f"unknown stream spec {text!r} (use e:N, list:..., pat:h;r:N)")


def _count(name: str, value: int) -> int:
    """A size, bound or count given on the command line: 0 or more."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _read_family(path: str):
    """The family in a JSON file; an unreadable file is a usage error."""
    from . import families

    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(str(exc)) from None
    return families.family_from_json(text)


def _emit(report: dict, args, code: int) -> int:
    report.setdefault("schema_version", SCHEMA_VERSION)
    fmt = args.format
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    elif fmt == "plain":
        for key in sorted(report):
            sys.stdout.write(f"{key}: {report[key]}\n")
    elif fmt == "csv":
        import csv

        keys = sorted(report)
        rows = csv.writer(sys.stdout, lineterminator="\n")
        rows.writerow(keys)
        rows.writerow([str(report[k]) for k in keys])
    return code


def _witness_json(w: verify.Witness | None):
    if w is None:
        return None
    return {
        "kind": w.kind,
        "payload": _plain(w.payload),
        "certificate": _plain(w.certificate),
        "bounds": _plain(w.bounds),
    }


def _search_report(report: dict, out: verify.SearchOutcome) -> int:
    """Add the fields every witness search reports, its answer, work
    counts and independently checked witness, and return its exit code."""
    from . import verify

    report.update(
        {
            "found": out.found,
            "visited": out.visited,
            "expected": out.expected,
            "witness": _witness_json(out.witness),
            "witness_checked": verify.check_witness(out.witness) if out.witness else None,
        }
    )
    return EXIT_FOUND if out.found else EXIT_EXHAUSTED


def _plain(x):
    from . import verify

    if isinstance(x, verify.Coloring):
        return x.to_json()
    if isinstance(x, (list, tuple)):
        return [_plain(i) for i in x]
    if isinstance(x, (frozenset, set)):
        return sorted(_plain(i) for i in x)
    return x


# --- subcommand handlers -------------------------------------------------


def _cmd_ordinal(args) -> int:
    from . import ordinal

    a = ordinal.parse(args.expr)
    report = {"command": "ordinal", "input": args.expr, "canonical": str(a)}
    if args.action == "classify":
        report["kind"] = ordinal.kind(a)
        if report["kind"] == "successor":
            report["pred"] = str(ordinal.pred(a))
    elif args.action == "fixed-seq":
        if args.succ:
            report["value"] = str(ordinal.fixed_seq_succ(a, args.n))
            report["path"] = [str(x) for x in ordinal.fixed_seq_path(a, args.n)]
        else:
            report["value"] = str(ordinal.fixed_seq(a, args.n))
        report["n"] = args.n
    return _emit(report, args, EXIT_FOUND)


def _cmd_schreier(args) -> int:
    from . import ordinal, schreier

    xi = ordinal.parse(args.xi)
    report = {"command": f"schreier {args.action}", "xi": str(xi), "rule": args.rule}
    code = EXIT_FOUND
    if args.action == "mem":
        s = _parse_finset(args.set)
        value = schreier.mem(xi, s)
        report.update({"set": list(s), "member": value})
        code = EXIT_FOUND if value else EXIT_EXHAUSTED
    elif args.action == "decompose":
        stream = _parse_finset(args.stream)
        seg = schreier.initial_segment(xi, stream)
        report.update({"stream": list(stream), "initial_segment": list(seg)})
    elif args.action == "enumerate":
        ms = schreier.enumerate_members(xi, args.max_n)
        # json writes the member tuples as arrays; plain and csv print lists
        members = ms if args.format == "json" else [list(m) for m in ms]
        report.update({"max_n": args.max_n, "count": len(ms), "members": members})
    elif args.action == "transfer":
        report.update({"n": args.n, "transfer_index": str(schreier.transfer_index(xi, args.n))})
    return _emit(report, args, code)


def _cmd_words(args) -> int:
    from . import words

    alph = _parse_alphabet(args.alphabet)
    report = {"command": f"words {args.action}", "alphabet": "".join(alph.symbols)}
    if args.action == "reduce":
        stream = _parse_stream(args.stream, alph)
        seq = _parse_seq(args.seq, alph)
        out = words.reduce_seq(stream, seq)
        report.update({"seq": words.seq_text(seq), "reduced": words.seq_text(out), "d": list(words.d_map(seq)) if seq else []})
    elif args.action == "d":
        seq = _parse_seq(args.seq, alph)
        report.update({"seq": words.seq_text(seq), "d": list(words.d_map(seq))})
    elif args.action == "reductions":
        seq = _parse_seq(args.seq, alph)
        rw, vrw = words.finite_reductions(seq, alph)
        report.update(
            {
                "seq": words.seq_text(seq),
                "constant": [[words.seq_text(s), list(d)] for s, d in rw],
                "variable": [[words.seq_text(s), list(d)] for s, d in vrw],
            }
        )
    return _emit(report, args, EXIT_FOUND)


def _cmd_wxi(args) -> int:
    from . import ordinal, words, wxi

    alph = _parse_alphabet(args.alphabet)
    xi = ordinal.parse(args.xi)
    side = {"c": "constant", "v": "variable"}[args.side]
    report = {
        "command": f"wxi {args.action}",
        "xi": str(xi),
        "alphabet": "".join(alph.symbols),
        "side": side,
        "rule": args.rule,
    }
    code = EXIT_FOUND
    if args.action == "member":
        base = _parse_stream(args.base, alph) if args.base else None
        seq = _parse_seq(args.seq, alph)
        if base is None:
            value = wxi.in_wxi(xi, alph, side, seq)
        else:
            value, t = wxi.in_wxi_relative(xi, alph, side, seq, base)
        report.update({"seq": words.seq_text(seq), "member": value})
        if seq:
            report["d"] = list(words.d_map(seq))
            if base is not None:
                report["relative_d"] = None if t is None else list(words.d_map(t))
        code = EXIT_FOUND if value else EXIT_EXHAUSTED
    elif args.action == "decompose":
        seq = _parse_seq(args.seq, alph)
        bounds, residual = wxi.canonical_rep(xi, seq)
        report.update(
            {"seq": words.seq_text(seq), "boundaries": list(bounds), "residual": residual}
        )
    elif args.action == "enumerate":
        ms = wxi.enumerate_wxi(xi, alph, side, args.letters)
        report.update(
            {"letters": args.letters, "count": len(ms), "members": [words.seq_text(m) for m in ms]}
        )
    return _emit(report, args, code)


def _cmd_family(args) -> int:
    from . import families, words

    fam = _read_family(args.file)
    report = {"command": f"family {args.action}", "members": len(fam.members), "side": fam.side}
    code = EXIT_FOUND
    if args.action == "close":
        closed = families.star_closure(fam) if args.closure == "star" else (
            families.substar(fam) if fam.side == "variable" else families.g_substar(fam)
        )
        report.update(
            {"closure": args.closure, "closed_size": len(closed.members),
             "closed": [words.seq_text(m) for m in closed.sorted_members()]}
        )
    elif args.action == "kernel":
        kern = families.hereditary_kernel(fam)
        report.update(
            {"kernel_size": len(kern.members), "kernel": [words.seq_text(m) for m in kern.sorted_members()]}
        )
    elif args.action == "thin":
        value = families.is_thin(fam)
        report["thin"] = value
        code = EXIT_FOUND if value else EXIT_EXHAUSTED
    elif args.action == "tree":
        value = families.is_tree(fam)
        report["tree"] = value
        code = EXIT_FOUND if value else EXIT_EXHAUSTED
    elif args.action == "dichotomy":
        from . import ordinal

        stream = _parse_stream(args.stream, fam.alph)
        xi = ordinal.parse(args.xi)
        rep = families.tree_dichotomy_check(fam, xi, stream, args.letters)
        report.update(rep)
        code = EXIT_FOUND if rep["equivalent"] else EXIT_EXHAUSTED
    return _emit(report, args, code)


def _cmd_cbindex(args) -> int:
    from . import cbindex

    alph = _parse_alphabet(args.alphabet)
    if args.family.startswith("len:"):
        max_len = _count("len", int(args.family.split(":")[1]))
        letters = max_len if args.seed_letters is None else _count("seed-letters", args.seed_letters)
        fam = cbindex.length_truncation_family(alph, args.side_full, max_len, letters)
    else:
        f = _read_family(args.family)
        fam = cbindex.explicit_cb_family(f.alph, f.side, f.members)
    stream = _parse_stream(args.stream, fam.alph)
    mode, _, param = args.oracle.partition(":")
    if mode == "exact":
        oracle = cbindex.ChainOracle(mode, rule=param or "length")
    elif mode == "horizon" and param:
        try:
            horizon = int(param)
        except ValueError:
            raise ValueError(f"--oracle horizon:H needs an integer H, got {param!r}") from None
        oracle = cbindex.ChainOracle(mode, horizon=horizon)
    else:
        oracle = cbindex.ChainOracle(mode)  # refused: an unknown mode, or horizon without H
    report = {
        "command": "cbindex",
        "family": fam.label,
        "oracle": args.oracle,
        "budget": args.budget,
        "stream_horizon": stream.horizon,
    }
    deriv = cbindex.Derivation(fam, stream, oracle)
    if args.levels is not None:
        report["profile"] = [len(deriv.survivors(level)) for level in range(args.levels + 1)]
    else:
        report["so_index"] = deriv.first_empty(args.budget) - 1
    report["nodes"] = deriv.nodes
    return _emit(report, args, EXIT_FOUND)


def _cmd_verify(args) -> int:
    from . import ordinal, verify

    report = {"command": f"verify {args.action}", "rule": args.rule}
    code = EXIT_FOUND
    if args.action == "ramsey":
        xi = ordinal.parse(args.xi)
        col = verify.parse_coloring(args.coloring, "finsets")
        out = verify.ramsey_schreier_search(xi, args.max_n, col, args.target)
        report.update({"xi": str(xi), "max_n": args.max_n, "target": args.target})
        code = _search_report(report, out)
    elif args.action == "pair-sweep":
        rep = verify.ramsey_pair_sweep(args.max_n, args.target)
        report.update(rep)
        code = EXIT_FOUND if rep["all_have_witness"] else EXIT_EXHAUSTED
    elif args.action == "carlson":
        alph = _parse_alphabet(args.alphabet)
        xi = ordinal.parse(args.xi)
        chi1 = verify.parse_coloring(args.chi1, "wordseqs", alph.symbols)
        chi2 = verify.parse_coloring(args.chi2, "wordseqs", alph.symbols)
        stream = _parse_stream(args.stream, alph)
        out = verify.carlson_witness_search(xi, chi1, chi2, stream, args.depth)
        report.update({"xi": str(xi), "depth": args.depth})
        code = _search_report(report, out)
    elif args.action == "hj":
        xi = ordinal.parse(args.xi)
        rep = verify.hales_jewett_M(args.r, args.n, args.k, xi, args.mmax)
        report.update(rep)
        code = EXIT_FOUND if rep["M"] is not None else EXIT_EXHAUSTED
    elif args.action == "subspace":
        alph = _parse_alphabet(args.alphabet)
        xi = ordinal.parse(args.xi)
        chi = verify.parse_coloring(args.chi, "wordset", alph.symbols)
        stream = _parse_stream(args.stream, alph)
        out = verify.subspace_search(xi, chi, stream, args.depth)
        report.update({"xi": str(xi), "depth": args.depth})
        code = _search_report(report, out)
    elif args.action == "nw":
        alph = _parse_alphabet(args.alphabet)
        rep = verify.nw_fixture_check(args.fixture, alph, args.letters)
        report.update(rep)
        code = EXIT_FOUND if rep["consistent"] else EXIT_EXHAUSTED
    return _emit(report, args, code)


# --- parser wiring --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="schramsey")
    top.add_argument("--config", help="JSON file with default option values")
    top.add_argument("--format", choices=["json", "plain", "csv"], default="json")
    top.add_argument("--rule", choices=["fixed", "succ"], default="fixed",
                     help="report label only: both limit rules give the same families; the engines walk 'fixed'")
    top._all_parsers = [top]
    sub = top.add_subparsers(dest="module", required=True)

    p = sub.add_parser("ordinal")
    p.add_argument("action", choices=["eval", "classify", "fixed-seq"])
    p.add_argument("expr")
    p.add_argument("-n", type=int, default=1)
    p.add_argument("--succ", action="store_true")
    p.set_defaults(handler=_cmd_ordinal)

    p = sub.add_parser("schreier")
    p.add_argument("action", choices=["mem", "decompose", "enumerate", "transfer"])
    p.add_argument("--xi", required=True)
    p.add_argument("--set", default="{}")
    p.add_argument("--stream", default="")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("-n", type=int, default=1)
    p.set_defaults(handler=_cmd_schreier)

    p = sub.add_parser("words")
    p.add_argument("action", choices=["reduce", "d", "reductions"])
    p.add_argument("--alphabet", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--stream", default="e:8")
    p.set_defaults(handler=_cmd_words)

    p = sub.add_parser("wxi")
    p.add_argument("action", choices=["member", "decompose", "enumerate"])
    p.add_argument("--xi", required=True)
    p.add_argument("--alphabet", required=True)
    p.add_argument("--side", choices=["c", "v"], default="c")
    p.add_argument("--seq", default="()")
    p.add_argument("--base", default=None)
    p.add_argument("--letters", type=int, default=6)
    p.set_defaults(handler=_cmd_wxi)

    p = sub.add_parser("family")
    p.add_argument("action", choices=["close", "kernel", "thin", "tree", "dichotomy"])
    p.add_argument("--file", required=True)
    p.add_argument("--closure", choices=["star", "hereditary"], default="star")
    p.add_argument("--xi", default="1")
    p.add_argument("--stream", default="e:6")
    p.add_argument("--letters", type=int, default=4)
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("cbindex")
    p.add_argument("--family", required=True, help="len:K or a family JSON file")
    p.add_argument("--alphabet", default="ab")
    p.add_argument("--side-full", choices=["constant", "variable"], default="constant")
    p.add_argument("--seed-letters", type=int, default=None)
    p.add_argument("--stream", default="e:40")
    p.add_argument("--oracle", default="exact:length")
    p.add_argument("--budget", type=int, default=16)
    p.add_argument("--levels", type=int, default=None)
    p.set_defaults(handler=_cmd_cbindex)

    p = sub.add_parser("verify")
    p.add_argument("action", choices=["ramsey", "pair-sweep", "carlson", "hj", "subspace", "nw"])
    p.add_argument("--xi", default="1")
    p.add_argument("--alphabet", default="ab")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--target", type=int, default=3)
    p.add_argument("--coloring", default="min_mod:2")
    p.add_argument("--chi1", default="const:1")
    p.add_argument("--chi2", default="const:1")
    p.add_argument("--chi", default="set_size_mod:2")
    p.add_argument("--stream", default="e:10")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--mmax", type=int, default=4)
    p.add_argument("--fixture", choices=["wide", "narrow", "empty"], default="wide")
    p.add_argument("--letters", type=int, default=7)
    p.set_defaults(handler=_cmd_verify)

    top._all_parsers += list(sub.choices.values())
    return top


def _preload_config(argv, parser):
    """Apply config-file values as parser defaults; explicit flags win."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path:
        with open(path) as fh:
            defaults = json.load(fh)
        if not isinstance(defaults, dict):
            raise ValueError("config file must hold a JSON object")
        cleaned = {k.replace("-", "_"): v for k, v in defaults.items()}
        dests = {a.dest for sub in parser._all_parsers for a in sub._actions}
        unknown = sorted(k for k in defaults if k.replace("-", "_") not in dests)
        if unknown:
            raise ValueError(f"unknown config key{'s' if len(unknown) > 1 else ''} {', '.join(map(repr, unknown))}")
        # subcommands parse into a fresh namespace, so each parser that
        # knows the option needs the default installed
        for sub in parser._all_parsers:
            known = {a.dest for a in sub._actions}
            sub.set_defaults(**{k: v for k, v in cleaned.items() if k in known})
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    try:
        argv = _preload_config(argv, parser)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args = parser.parse_args(argv)
    try:
        # every integer option counts something, so none may be negative
        for dest, value in vars(args).items():
            if type(value) is int:
                _count(dest.replace("_", "-"), value)
        return args.handler(args)
    except (OrdinalParseError, ReductionMismatch, HorizonExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceeded, OracleUndecided) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SchramseyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
