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
import atexit
import gc
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

# A CLI job is one short-lived interpreter, and its last garbage
# collection at exit would traverse and free every module and class
# cycle.  Freezing the heap into the permanent generation once the exit
# handlers run spares that work; output is still flushed and the other
# exit handlers still run.
atexit.register(gc.freeze)

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
    return tuple(_spec_int(f"set spec {text!r}", "element", x) for x in body.split(","))


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


def _spec_int(spec: str, field: str, text: str) -> int:
    """An integer field of a spec; a malformed one is a usage error that
    names the spec."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{spec} needs an integer {field}, got {text!r}") from None


def _parse_stream(text: str, alph: words.Alphabet) -> words.VarWordStream:
    from . import words

    kind, _, rest = text.partition(":")
    if kind == "e":
        return words.upsilon_stream(alph, _spec_int(f"stream spec {text!r}", "horizon", rest))
    if kind == "list":
        items = rest.split(",")
        return words.VarWordStream(alph, tuple(words.word(t, alph) for t in items))
    if kind == "pat":
        spec, _, horizon = rest.rpartition(":")
        head_s, _, repeat_s = spec.partition(";")
        head = head_s.split(",") if head_s else []
        repeat = repeat_s.split(",") if repeat_s else []
        return words.pattern_stream(alph, head, repeat, _spec_int(f"stream spec {text!r}", "horizon", horizon))
    raise ValueError(f"unknown stream spec {text!r} (use e:N, list:..., pat:h;r:N)")


def _count(name: str, value: int) -> int:
    """A size, bound or count given on the command line: 0 or more."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _read_json(path: str, what: str):
    """The JSON value in a file; a file that cannot be read or decoded is
    a usage error, and one that is not JSON names its path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(str(exc)) from None
    except (ValueError, RecursionError) as exc:  # nested past the decoder's recursion limit
        raise ValueError(f"{what} {path!r} is not JSON: {exc}") from None


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
        report["seq"] = words.seq_text(seq)
        for side in ("constant", "variable"):
            pairs = words.finite_reductions(seq, alph, side)
            report[side] = [[words.seq_text(s), list(d)] for s, d in pairs]
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

    fam = families.family_from_json(_read_json(args.file, "family file"))
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
        max_len = _count("len", _spec_int("--family len:K", "K", args.family.split(":")[1]))
        letters = max_len if args.seed_letters is None else _count("seed-letters", args.seed_letters)
        fam = cbindex.length_truncation_family(alph, args.side_full, max_len, letters)
    else:
        from . import families

        f = families.family_from_json(_read_json(args.family, "family file"))
        fam = cbindex.explicit_cb_family(f.alph, f.side, f.members)
    stream = _parse_stream(args.stream, fam.alph)
    mode, _, param = args.oracle.partition(":")
    if mode == "exact":
        oracle = cbindex.ChainOracle(mode, rule=param or "length")
    elif mode == "horizon" and param:
        oracle = cbindex.ChainOracle(mode, horizon=_spec_int("--oracle horizon:H", "H", param))
    else:
        oracle = cbindex.ChainOracle(mode)  # refused: an unknown mode, or horizon without H
    budget = cbindex.MAX_PASSES if args.budget is None else args.budget
    report = {
        "command": "cbindex",
        "family": fam.label,
        "oracle": args.oracle,
        "budget": budget,
        "stream_horizon": stream.horizon,
    }
    deriv = cbindex.Derivation(fam, stream, oracle)
    if args.levels is not None:
        report["profile"] = [len(deriv.survivors(level)) for level in range(args.levels + 1)]
    else:
        report["so_index"] = deriv.first_empty(budget) - 1
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


# --- options ---------------------------------------------------------------

# Every argument of the top level (key None) and of each subcommand, one
# row each: its name and argparse's own keywords.  `build_parser` adds the
# rows, and `_config_defaults` takes a flag row's dest as a `--config` key
# and checks its value by the row's keywords.
OPTIONS = {
    None: [
        ("--config", dict(help="JSON file with default option values")),
        ("--format", dict(choices=["json", "plain", "csv"], default="json")),
        ("--rule", dict(choices=["fixed", "succ"], default="fixed",
                        help="report label only: both limit rules give the same families; the engines walk 'fixed'")),
    ],
    "ordinal": [
        ("action", dict(choices=["eval", "classify", "fixed-seq"])), ("expr", dict()),
        ("-n", dict(type=int, default=1)), ("--succ", dict(action="store_true")),
    ],
    "schreier": [
        ("action", dict(choices=["mem", "decompose", "enumerate", "transfer"])), ("--xi", dict(required=True)),
        ("--set", dict(default="{}")), ("--stream", dict(default="")),
        ("--max-n", dict(type=int, default=8)), ("-n", dict(type=int, default=1)),
    ],
    "words": [
        ("action", dict(choices=["reduce", "d", "reductions"])),
        ("--alphabet", dict(required=True)), ("--seq", dict(required=True)), ("--stream", dict(default="e:8")),
    ],
    "wxi": [
        ("action", dict(choices=["member", "decompose", "enumerate"])),
        ("--xi", dict(required=True)), ("--alphabet", dict(required=True)),
        ("--side", dict(choices=["c", "v"], default="c")), ("--seq", dict(default="()")),
        ("--base", dict(default=None)), ("--letters", dict(type=int, default=6)),
    ],
    "family": [
        ("action", dict(choices=["close", "kernel", "thin", "tree", "dichotomy"])), ("--file", dict(required=True)),
        ("--closure", dict(choices=["star", "hereditary"], default="star")), ("--xi", dict(default="1")),
        ("--stream", dict(default="e:6")), ("--letters", dict(type=int, default=4)),
    ],
    "cbindex": [
        ("--family", dict(required=True, help="len:K or a family JSON file")), ("--alphabet", dict(default="ab")),
        ("--side-full", dict(choices=["constant", "variable"], default="constant")),
        ("--seed-letters", dict(type=int, default=None)), ("--stream", dict(default="e:40")),
        ("--oracle", dict(default="exact:length")), ("--budget", dict(type=int, default=None)),
        ("--levels", dict(type=int, default=None)),
    ],
    "verify": [
        ("action", dict(choices=["ramsey", "pair-sweep", "carlson", "hj", "subspace", "nw"])),
        ("--xi", dict(default="1")), ("--alphabet", dict(default="ab")),
        ("--max-n", dict(type=int, default=6)), ("--target", dict(type=int, default=3)),
        ("--coloring", dict(default="min_mod:2")), ("--chi1", dict(default="const:1")),
        ("--chi2", dict(default="const:1")), ("--chi", dict(default="set_size_mod:2")),
        ("--stream", dict(default="e:10")), ("--depth", dict(type=int, default=2)),
        ("--r", dict(type=int, default=2)), ("--n", dict(type=int, default=1)), ("--k", dict(type=int, default=2)),
        ("--mmax", dict(type=int, default=4)), ("--fixture", dict(choices=["wide", "narrow", "empty"], default="wide")),
        ("--letters", dict(type=int, default=7)),
    ],
}


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def build_parser(defaults=None) -> argparse.ArgumentParser:
    """The parser of every row of OPTIONS, with `defaults` (by dest) in
    place of the flag rows' own, so explicit flags still win."""
    defaults = defaults or {}
    top = argparse.ArgumentParser(prog="schramsey")
    sub = top.add_subparsers(dest="module", required=True)
    for module, rows in OPTIONS.items():
        p = top
        if module is not None:
            p = sub.add_parser(module)
            p.set_defaults(handler=globals()[f"_cmd_{module}"])  # looked up at each build, not at import
        for name, kw in rows:
            if name.startswith("-") and _dest(name) in defaults:
                kw = {**kw, "default": defaults[_dest(name)]}
            p.add_argument(name, **kw)
    return top


def _config_defaults(path: str) -> dict:
    """The values of the `--config` file at path, by dest.  Each key must
    name a flag row, and each value pass the checks its flag's value
    would for every row of that dest: a switch takes true or false, an
    integer option an integer, any other option a string, and an option
    with choices one of them."""
    values = _read_json(path, "config file")
    if not isinstance(values, dict):
        raise ValueError("config file must hold a JSON object")
    # only a flag's value can come from a file: not --config or a positional
    flags = [(_dest(name), kw) for rows in OPTIONS.values() for name, kw in rows
             if name.startswith("-") and name != "--config"]
    unknown = sorted(k for k in values if k.replace("-", "_") not in {dest for dest, _ in flags})
    if unknown:
        raise ValueError(f"unknown config key{'s' if len(unknown) > 1 else ''} {', '.join(map(repr, unknown))}")
    # a key may belong to several subcommands; its value must suit each
    for key, value in values.items():
        for kw in [kw for dest, kw in flags if dest == key.replace("-", "_")]:
            kind = bool if kw.get("action") == "store_true" else kw.get("type", str)
            if type(value) is not kind:
                expected = {bool: "true or false", int: "an integer"}.get(kind, "a string")
                raise ValueError(f"config key {key!r} takes {expected}, got {json.dumps(value)}")
            choices = kw.get("choices")
            if choices is not None and value not in choices:
                raise ValueError(f"config key {key!r} takes one of {', '.join(map(repr, choices))}, got {value!r}")
    return {k.replace("-", "_"): v for k, v in values.items()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # argparse finds the --config path under any spelling it accepts
        args = build_parser().parse_args(argv)
        if args.config:
            args = build_parser(_config_defaults(args.config)).parse_args(argv)
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
