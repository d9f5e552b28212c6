"""Command-line front end: diamond printing and the one-shot audit report.

``main(argv)`` parses the fixed grammar of its two commands itself,

    hodgekit diamond [--preset P | --spec FILE] [--format F] op n [subgroup]
    hodgekit verify-paper [--n-max N] [--format F]

taking ``--flag value`` or ``--flag=value``, a unique prefix of a flag,
options between positionals and ``-h``/``--help``; a lone ``-``, a negative
number such as ``-1`` or ``-.5`` and a word holding a space are values, as
argparse reads them.  Usage errors are reported as argparse reports them.

Exit codes: 0 success, 1 at least one audit check failed, 2 usage or parse
error (including ``hilb`` or ``cover`` of a table that is not a surface),
3 unsupported input: odd-degree cohomology, a ``diamond`` request with n
above :data:`DIAMOND_N_MAX` or whose diamond's complex dimension exceeds
:data:`DIAMOND_DIMENSION_MAX`, or a ``verify-paper`` request with
``--n-max`` above :data:`VERIFY_N_MAX`, rejected before any work; 141 when
the reader of stdout closed it early (``hodgekit ... | head``), the code a
shell gives a process killed by SIGPIPE.  A check whose computed value is
internally consistent but disagrees with a published figure is reported as
``discrepancy-noted`` and does not fail the run.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import sys
from collections import namedtuple
from types import SimpleNamespace

from .bigraded import (
    EquivHodgeTable,
    HodgeTable,
    OddCohomologyUnsupported,
    PRESETS,
    format_diamond,
    load_surface_spec,
    preset,
)
from .cover import cover_diamond_n2, exceptional_orbits
from .group import (
    WHICH,
    TooLarge,
    _groups_containing,
    census_series,
    element_census,
    group_order,
)
from .hilbert import euler_product_coefficients, hilbert_diamond, hilbert_series
from .invariants import (class_sum_dims, class_trace, invariant_dims, invariant_series,
                         sym_product)
from .oracle import projector_tables

PASS = "pass"
FAIL = "fail"
NOTED = "discrepancy-noted"

#: Largest n the diamond command accepts; n = 40 takes under a second.
DIAMOND_N_MAX = 40

#: Largest complex dimension of a diamond the diamond command builds (a
#: threefold's at the largest n); the printed rows grow with its square.
DIAMOND_DIMENSION_MAX = 3 * DIAMOND_N_MAX

#: Largest --n-max verify-paper accepts; 20 takes about 0.3 s and 16 about
#: 0.15 s, of which about 0.07 s is start-up; past start-up the cost grows
#: 2- to 3-fold per 4 steps (the census series grows fastest).
VERIFY_N_MAX = 20


#: Outcome of one audit check, with the provenance of its expectation
#: ("PAPER" or "DERIVED"); every field is a string.
CheckResult = namedtuple("CheckResult", ["check_id", "description", "expected",
                                         "provenance", "actual", "status"])


def _check(check_id, description, expected, actual, provenance,
           published=None) -> CheckResult:
    """Compare actual against expected; a check carrying a differing
    published figure reports discrepancy-noted instead of pass."""
    if actual == expected:
        status = NOTED if (published is not None and published != expected) else PASS
    else:
        status = FAIL
    return CheckResult(check_id, description, str(expected), provenance,
                       str(actual), status)


def run_paper_checks(n_max: int = 6) -> list[CheckResult]:
    """Every dimension audited against its published or derived value.

    Deterministic: fixed construction order, ids carry ordered prefixes.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    results: list[CheckResult] = []
    add = results.append

    # Deck group census, one series for every n; H is normal in G, so its
    # census is G's restricted to the types inside H.
    g_census = census_series(n_max)
    for which in ("G", "H"):
        for n, census in g_census.items():
            total = sum(size for _, size, in_h in census if in_h or which == "G")
            add(_check(f"010-group-order-{which}-n{n}",
                       f"order of {which} at n={n} equals "
                       f"{'2^n' if which == 'G' else '2^(n-1)'} * n!",
                       group_order(n, which), total, "PAPER"))
    for n in range(1, min(n_max, 5) + 1):
        add(_check(f"011-group-enum-match-n{n}",
                   f"element census by signed cycle type matches classes() at n={n}",
                   True, element_census(n) == [t[:2] for t in g_census[n]], "DERIVED"))
    for n in range(1, min(n_max, 5) + 1):
        add(_check(f"012-group-single-twist-outside-H-n{n}",
                   f"a single-slot twist lies outside H at n={n}",
                   False, "H" in _groups_containing(1), "PAPER"))

    # Graded traces on the K3 preset.
    table = preset("k3_enriques")
    add(_check("020-trace-untwisted-fixed-point-h11",
               "untwisted fixed point: trace coefficient at (1,1) is the "
               "full h^{1,1} of the K3 surface",
               20, class_trace(((1, 0),), table).get((1, 1), 0),
               "PAPER"))
    add(_check("021-trace-twisted-fixed-point-h11",
               "twisted fixed point: trace coefficient at (1,1) cancels "
               "(10 invariant minus 10 anti-invariant)",
               0, class_trace(((1, 1),), table).get((1, 1), 0),
               "PAPER"))

    # Hilbert schemes of the Enriques and K3 surfaces, one series each.
    enriques_table = preset("enriques").forget()
    k3_table = preset("k3").forget()
    hilb = {name: hilbert_series(surface, n_max)
            for name, surface in (("enriques", enriques_table), ("k3", k3_table))}
    for n in range(2, n_max + 1):
        add(_check(f"030-hilb-enriques-h-one-top-n{n}",
                   f"h^(1,{2 * n - 1}) of the Hilbert scheme of {n} points "
                   "on an Enriques surface vanishes",
                   0, hilb["enriques"][n][1, 2 * n - 1], "PAPER"))
    for n in range(2, n_max + 1):
        add(_check(f"031-hilb-enriques-b2-n{n}",
                   f"b_2 of the Hilbert scheme of {n} points on an Enriques "
                   "surface",
                   11, hilb["enriques"][n].betti(2), "PAPER"))
    for n in range(2, min(n_max, 5) + 1):
        add(_check(f"032-hilb-k3-b2-n{n}",
                   f"b_2 of the Hilbert scheme of {n} points on a K3 surface",
                   23, hilb["k3"][n].betti(2), "DERIVED"))
    add(_check("033-preset-enriques-b1",
               "b_1 of the Enriques preset vanishes",
               0, enriques_table.betti(1), "PAPER"))

    # Quotients of the n-fold K3 product by the even-twist group, one series,
    # their exceptional orbit counts and the projector tables, each built once.
    quotient = invariant_series(table, n_max, "H")
    orbits = {n: exceptional_orbits(n) for n in range(2, n_max + 1)}
    oracle = {(n, which): dims for n in (1, 2, 3)
              for which, dims in projector_tables(table, n).items()}

    # Intermediate quotient of the squared K3 by the even-twist group.
    for check_id, pq, expected in (
        ("040-quot-k2-h11", (1, 1), 10),
        ("041-quot-k2-h31", (3, 1), 10),
        ("042-quot-k2-h40", (4, 0), 1),
    ):
        p, q = pq
        add(_check(check_id,
                   f"h^({p},{q}) of the even-twist quotient of the squared "
                   "K3 surface",
                   expected, quotient[2][pq], "PAPER"))
    oracle22 = oracle[2, "H"][2, 2]
    add(_check("043-quot-k2-h22",
               "h^(2,2) of the even-twist quotient of the squared K3 "
               "surface equals the projector oracle (published table "
               "prints 111)",
               oracle22, quotient[2][2, 2], "DERIVED", published=111))

    # The Calabi-Yau double cover at n=2.
    cover = cover_diamond_n2()
    for check_id, pq, expected in (
        ("050-cover-n2-h00", (0, 0), 1),
        ("051-cover-n2-h10", (1, 0), 0),
        ("052-cover-n2-h20", (2, 0), 0),
        ("053-cover-n2-h11", (1, 1), 12),
        ("054-cover-n2-h30", (3, 0), 0),
        ("055-cover-n2-h21", (2, 1), 0),
        ("056-cover-n2-h40", (4, 0), 1),
        ("057-cover-n2-h31", (3, 1), 10),
    ):
        p, q = pq
        add(_check(check_id, f"h^({p},{q}) of the double cover at n=2",
                   expected, cover[pq], "PAPER"))
    add(_check("058-cover-n2-h22",
               "h^(2,2) of the double cover at n=2 equals base oracle value "
               "plus both exceptional contributions (published table prints "
               "131, which fails the covering Euler identity)",
               oracle22 + 20, cover[2, 2], "DERIVED", published=131))
    double = 2 * hilb["enriques"][2].euler()
    add(_check("059-cover-n2-euler-double",
               "Euler number of the double cover is twice that of the "
               "Hilbert square of the Enriques surface",
               double, cover.euler(), "DERIVED"))

    # Exceptional orbit counts and dim H^2 of the cover: the quotient's b_2
    # plus one class per orbit of exceptional divisors.
    add(_check("060-orbits-n2", "exceptional classes form two orbits at n=2",
               2, orbits[2], "PAPER"))
    for n in range(3, n_max + 1):
        add(_check(f"061-orbits-n{n}",
                   f"exceptional classes form one orbit at n={n}",
                   1, orbits[n], "PAPER"))
    for n in range(2, n_max + 1):
        add(_check(f"062-cover-h2-n{n}", f"dim H^2 of the double cover at n={n}",
                   12 if n == 2 else 11, quotient[n].betti(2) + orbits[n], "PAPER"))

    # The antiinvariant top slot of the quotient.
    for n in range(2, n_max + 1):
        add(_check(f"070-quot-h-top-minus-n{n}",
                   f"h^({2 * n - 1},1) of the even-twist quotient of the "
                   f"{n}-fold K3 product",
                   10, quotient[n][2 * n - 1, 1], "PAPER"))

    # Euler generating-function cross-checks.
    for name, surface in (("enriques", enriques_table), ("k3", k3_table)):
        match = ([s.euler() for s in hilb[name]]
                 == euler_product_coefficients(surface.euler(), n_max))
        add(_check(f"080-euler-gf-{name}",
                   f"assembled Euler numbers match the product generating "
                   f"function for the {name} preset up to n={n_max}",
                   True, match, "DERIVED"))

    # The symmetric-power engine against both audit routes.
    for n in (1, 2, 3):
        agree = all(
            invariant_dims(table, n, which) == class_sum_dims(table, n, which)
            == oracle[n, which]
            for which in WHICH
        )
        add(_check(f"090-oracle-equiv-n{n}",
                   f"class-sum engine matches the projector oracle at n={n} "
                   "for all three groups",
                   True, agree, "DERIVED"))

    return results


def _render_table(results: list[CheckResult]) -> str:
    headers = ("check", "status", "expected", "actual", "description")
    rows = [(r.check_id, r.status, f"{r.expected} [{r.provenance}]", r.actual,
             r.description) for r in results]
    widths = [max(len(h), *(len(row[i]) for row in rows))
              for i, h in enumerate(headers)]
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _render_results(results: list[CheckResult], fmt: str) -> str:
    if fmt == "json":
        # json.dumps(..., indent=2, sort_keys=True) written out, as in _render_hodge
        keys = sorted(CheckResult._fields)
        rows = [",\n".join(f'    "{k}": {json.dumps(getattr(r, k))}' for k in keys)
                for r in results]
        return "[\n  {\n" + "\n  },\n  {\n".join(rows) + "\n  }\n]" if rows else "[]"
    if fmt == "csv":
        return _csv(CheckResult._fields, results)
    return _render_table(results)


def _render_hodge(name: str, table: HodgeTable, fmt: str) -> str:
    if fmt == "json":
        # json.dumps(..., indent=2, sort_keys=True), written out: any indent
        # sends json to its pure-Python encoder, about five times slower
        rows = ",\n".join(f"    [\n      {p},\n      {q},\n      {d}\n    ]"
                          for (p, q), d in table.items())
        hodge = f"[\n{rows}\n  ]" if rows else "[]"
        return (f'{{\n  "dimension": {table.dimension},\n  "hodge": {hodge},\n'
                f'  "name": {json.dumps(name)}\n}}')
    if fmt == "csv":
        return _csv(["p", "q", "dim"], ([p, q, d] for (p, q), d in table.items()))
    header = f"{name}: complex dimension {table.dimension}, euler {table.euler()}"
    return header + "\n" + format_diamond(table)


def _load_input(args) -> tuple[str, EquivHodgeTable]:
    if args.spec:
        return load_surface_spec(args.spec)
    return args.preset, preset(args.preset)


def cmd_diamond(args) -> int:
    if args.op == "quotient" and args.subgroup is None:
        raise ValueError("quotient requires a subgroup: Sn, G or H")
    if args.op != "quotient" and args.subgroup is not None:
        raise ValueError(f"{args.op} takes no subgroup, got {args.subgroup}; "
                         "only quotient does")
    n = args.n
    if n > DIAMOND_N_MAX:
        raise TooLarge(f"n = {n} exceeds the diamond bound n <= {DIAMOND_N_MAX}")
    name, table = _load_input(args)
    if args.op in ("hilb", "cover") and table.dimension != 2:
        raise ValueError(f"{args.op} needs a surface (dimension 2), but {name} "
                         f"has dimension {table.dimension}")
    size = n * table.dimension  # 2n for hilb and cover: their table is a surface
    if size > DIAMOND_DIMENSION_MAX:
        raise TooLarge(f"{args.op} {n} of {name} has complex dimension {size}, "
                       f"above the diamond bound {DIAMOND_DIMENSION_MAX}")
    if args.op == "hilb":
        result = hilbert_diamond(table.forget(), n)
        title = f"hilb {n} of {name}"
    elif args.op == "sym":
        result = sym_product(table.forget(), n)
        title = f"sym {n} of {name}"
    elif args.op == "quotient":
        result = invariant_dims(table, n, args.subgroup)
        title = f"quotient of {name}^{n} by {args.subgroup}"
    else:  # cover
        if n != 2:
            raise ValueError(
                f"cover supports n=2 only, got n={n}; weight-2 data for "
                "larger n is part of verify-paper"
            )
        result = cover_diamond_n2(table)
        title = f"double cover over hilb 2 of the quotient of {name}"
    print(_render_hodge(title, result, args.format))
    return 0


def cmd_verify_paper(args) -> int:
    if args.n_max < 2:
        raise ValueError(f"--n-max must be >= 2, got {args.n_max}")
    if args.n_max > VERIFY_N_MAX:
        raise TooLarge(f"--n-max {args.n_max} exceeds the verify-paper bound "
                       f"--n-max <= {VERIFY_N_MAX}")
    results = run_paper_checks(args.n_max)
    print(_render_results(results, args.format))
    counts = {status: sum(1 for r in results if r.status == status)
              for status in (PASS, NOTED, FAIL)}
    # summary on stderr keeps every stdout format machine-parseable
    print(f"checks: {len(results)}  pass: {counts[PASS]}  "
          f"discrepancy-noted: {counts[NOTED]}  fail: {counts[FAIL]}",
          file=sys.stderr)
    return 1 if counts[FAIL] else 0


_FORMATS = ("table", "json", "csv")

#: The grammar main parses, per command: its options (each taking one
#: value) and positionals, in order, as name -> (kind, default), where kind
#: is int, the allowed values, or None for any string; and how many
#: positionals must be given.
_COMMANDS = {
    "diamond": ({"--preset": (tuple(sorted(PRESETS)), "k3_enriques"),
                 "--spec": (None, None), "--format": (_FORMATS, "table"),
                 "op": (("hilb", "sym", "quotient", "cover"), None),
                 "n": (int, None), "subgroup": (WHICH, None)}, 2),
    "verify-paper": ({"--n-max": (int, 6), "--format": (_FORMATS, "table")}, 0),
}
_EXCLUSIVE = {"--preset": "--spec", "--spec": "--preset"}
_USAGE = {
    None: "usage: hodgekit [-h] {diamond,verify-paper} ...",
    "diamond": "usage: hodgekit diamond [-h]\n"
               "                        [--preset {enriques,k3,k3_enriques} | --spec FILE]\n"
               "                        [--format {table,json,csv}]\n"
               "                        {hilb,sym,quotient,cover} n [{Sn,G,H}]",
    "verify-paper": ("usage: hodgekit verify-paper [-h] [--n-max N_MAX] "
                     "[--format {table,json,csv}]"),
}


def _exit(command, error=None):
    """Exit as argparse does: on -h the usage on stdout and code 0, on a
    usage error the usage and the error on stderr and code 2."""
    out = sys.stderr if error else sys.stdout
    print(_USAGE[command], file=out)
    if error:
        print(f"hodgekit{' ' + command if command else ''}: error: {error}", file=out)
    raise SystemExit(2 if error else 0)


#: argparse's pattern for a negative number, which is a value, not an option
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_option(word, flags=("--help",)) -> bool:
    """Whether argparse reads word as an option of a parser with -h and these
    flags.  A word opening with "-", other than "-" itself, is one if it
    names -h or a prefix of a flag (up to any "="), and otherwise unless it
    is a negative number such as -1 or -.5 or holds a space."""
    if word[:1] != "-" or word == "-":
        return False
    name = word.partition("=")[0] if word[1] == "-" else word[:2]
    if name == "-h" or any(flag.startswith(name) for flag in flags):
        return True
    return not (" " in word or _NEGATIVE_NUMBER.match(word))


def _parse(argv):
    """The arguments of argv's command, as its handler reads them."""
    command = argv[0] if argv else None
    if command in ("-h", "--h", "--he", "--hel", "--help"):  # --help or a prefix
        _exit(None)
    if command not in _COMMANDS:
        _exit(None, f"argument command: invalid choice: {command!r} (choose from "
                    "'diamond', 'verify-paper')" if argv and not _is_option(command)
              else "the following arguments are required: command")
    grammar, required = _COMMANDS[command]
    flags = ("--help", *grammar)
    values, given, extras = {}, [], []
    words = iter(argv[1:])
    for word in words:
        if word == "--":
            given += words
            continue
        if not _is_option(word, flags):
            given.append(word)
            continue
        name, eq, value = word.partition("=")
        found = [flag for flag in flags if flag.startswith(name)]
        if name == "-h" or found == ["--help"]:
            _exit(command)
        if len(found) != 1:
            extras.append(word)
            continue
        flag, value = found[0], value if eq else next(words, None)
        if value is None or _is_option(value, flags):
            _exit(command, f"argument {flag}: expected one argument")
        values[flag] = value
        if _EXCLUSIVE.get(flag) in values:
            _exit(command, f"argument {flag}: not allowed with argument {_EXCLUSIVE[flag]}")
    positionals = [name for name in grammar if name[0] != "-"]
    values.update(zip(positionals, given))
    args = SimpleNamespace(command=command)
    for name, (kind, default) in grammar.items():
        value = values.get(name)
        if value is None:
            value = default
        elif kind is int:
            try:
                value = int(value)
            except ValueError:
                _exit(command, f"argument {name}: invalid int value: {value!r}")
        elif kind is not None and value not in kind:
            _exit(command, f"argument {name}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, kind))})")
        setattr(args, name.lstrip("-").replace("-", "_"), value)
    if len(given) < required:
        missing = ", ".join(positionals[len(given):required])
        _exit(command, f"the following arguments are required: {missing}")
    extras += given[len(positionals):]
    if extras:
        _exit(None, "unrecognized arguments: " + " ".join(extras))
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        # named at call time, so that a wrapper set on the module, such as a
        # span recorder's, sees the call
        code = (cmd_diamond if args.command == "diamond" else cmd_verify_paper)(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (hodgekit ... | head): stop quietly, with
        # stdout pointed at devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OddCohomologyUnsupported, TooLarge) as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
