"""Command-line behavior: outputs, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

import hodgekit
from hodgekit import bigraded, cli, cover, group, invariants, oracle
from hodgekit.bigraded import (
    HodgeTable,
    OddCohomologyUnsupported,
    direct_sum,
    k3_enriques,
    parse_surface_spec,
    point,
    preset,
)
from hodgekit.cli import main, run_paper_checks
from hodgekit.group import WHICH
from hodgekit.hilbert import hilbert_diamond

from golden.capture import GOLDEN_DIR, cases


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDiamondCommand:
    def test_hilbert_square_of_enriques(self, capsys):
        code, out, _ = run_main(capsys, "diamond", "--preset", "enriques",
                                "--format", "json", "hilb", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["dimension"] == 4
        assert [1, 1, 11] in payload["hodge"]

    def test_cover_table_lists_headline_values(self, capsys):
        code, out, _ = run_main(capsys, "diamond", "--preset", "k3_enriques",
                                "--format", "json", "cover", "2")
        assert code == 0
        rows = json.loads(out)["hodge"]
        assert [1, 1, 12] in rows
        assert [3, 1, 10] in rows
        assert [2, 2, 132] in rows

    def test_sym_one_is_the_surface(self, capsys):
        code, out, _ = run_main(capsys, "diamond", "--preset", "enriques",
                                "--format", "csv", "sym", "1")
        assert code == 0
        assert out.splitlines() == ["p,q,dim", "0,0,1", "1,1,10", "2,2,1"]

    def test_quotient_requires_subgroup(self, capsys):
        code, _, err = run_main(capsys, "diamond", "quotient", "2")
        assert code == 2
        assert "subgroup" in err

    @pytest.mark.parametrize("argv", [("cover", "2", "H"), ("hilb", "3", "G"),
                                      ("sym", "2", "Sn")])
    def test_subgroup_refused_outside_quotient(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("input loaded")
        monkeypatch.setattr(cli, "preset", refuse)
        code, out, err = run_main(capsys, "diamond", "--preset", "k3", *argv)
        assert code == 2 and out == ""
        assert f"{argv[0]} takes no subgroup, got {argv[2]}" in err

    def test_quotient_h(self, capsys):
        code, out, _ = run_main(capsys, "diamond", "--preset", "k3_enriques",
                                "--format", "json", "quotient", "2", "H")
        assert code == 0
        assert [2, 2, 112] in json.loads(out)["hodge"]

    @pytest.mark.parametrize("argv", [("sym", "41"), ("hilb", "1000")])
    def test_n_above_bound_exits_3_before_any_work(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("computation started")
        for name in ("_load_input", "sym_product", "hilbert_diamond"):
            monkeypatch.setattr(cli, name, refuse)
        code, out, err = run_main(capsys, "diamond", *argv)
        assert code == 3 and out == ""
        assert f"n <= {cli.DIAMOND_N_MAX}" in err

    def test_cover_rejects_other_n(self, capsys, monkeypatch):
        # cover takes 2 <= n <= DIAMOND_N_MAX; past the bound nothing is loaded
        code, out, err = run_main(capsys, "diamond", "cover", "1")
        assert code == 2 and out == ""
        assert "cover needs n >= 2, got n=1" in err

        def refuse(*args):
            raise AssertionError("computation started")
        for name in ("_load_input", "cover_series"):
            monkeypatch.setattr(cli, name, refuse)
        code, out, err = run_main(capsys, "diamond", "cover", "41")
        assert code == 3 and out == ""
        assert f"n = 41 exceeds the diamond bound n <= {cli.DIAMOND_N_MAX}" in err

    @pytest.mark.parametrize("name, values", [("k3", "24 != 0"), ("enriques", "12 != 0")])
    def test_cover_past_n2_needs_a_free_involution(self, capsys, name, values):
        # the trivially split presets keep their formal cover 2
        code, out, err = run_main(capsys, "diamond", "--preset", name, "cover", "3")
        assert code == 2 and out == ""
        assert ("a double cover past n = 2 needs a free involution, but Lefschetz's "
                f"condition e(V+) = e(V-) fails: {values}") in err

    @pytest.mark.parametrize("argv, value", [(("hilb", "0"), "got 0"),
                                             (("quotient", "-2", "H"), "got -2")])
    def test_n_below_one_names_the_value(self, capsys, argv, value):
        code, out, err = run_main(capsys, "diamond", *argv)
        assert code == 2 and out == ""
        assert f"n must be >= 1, {value}" in err

    def test_json_and_csv_agree(self, capsys):
        _, out_json, _ = run_main(capsys, "diamond", "--preset", "k3",
                                  "--format", "json", "hilb", "2")
        _, out_csv, _ = run_main(capsys, "diamond", "--preset", "k3",
                                 "--format", "csv", "hilb", "2")
        from_json = {(p, q): d for p, q, d in json.loads(out_json)["hodge"]}
        from_csv = {}
        for line in out_csv.splitlines()[1:]:
            p, q, d = map(int, line.split(","))
            from_csv[(p, q)] = d
        assert from_json == from_csv


class TestRenderHodgeJson:
    """The diamond's JSON is written out by hand; it must stay what
    json.dumps(..., indent=2, sort_keys=True) gives."""

    @staticmethod
    def dumped(name, table):
        payload = {"name": name, "dimension": table.dimension,
                   "hodge": [[p, q, d] for (p, q), d in table.items()]}
        return json.dumps(payload, indent=2, sort_keys=True)

    @pytest.mark.parametrize("name, table", [
        ("empty", HodgeTable({}, dimension=4)),
        ("point", point()),
        ("hilb 40 of k3", hilbert_diamond(preset("k3").forget(), 40)),
        ('quote " backslash \\ newline \n accent \u00e9', preset("enriques").forget()),
    ], ids=["empty", "point", "hilb-40-above-2^64", "escaped-name"])
    def test_matches_json_dumps(self, name, table):
        assert cli._render_hodge(name, table, "json") == self.dumped(name, table)


class TestRenderResultsJson:
    """verify-paper's JSON is written out by hand too, against the same
    json.dumps(..., indent=2, sort_keys=True) of each row's fields."""

    @pytest.mark.parametrize("results", [
        run_paper_checks(6),
        [],
        [cli.CheckResult('quote "', "backslash \\", "newline \n", "accent \u00e9",
                         '"\\\n\u00e9', "fail")],
    ], ids=["verify-paper-6", "empty", "escaped-fields"])
    def test_matches_json_dumps(self, results):
        assert (cli._render_results(results, "json")
                == json.dumps([r._asdict() for r in results], indent=2, sort_keys=True))


class TestSharedParser:
    """main keeps no state between calls: no option, default or error
    carries over from one argv to the next."""

    @staticmethod
    def golden(name):
        return (GOLDEN_DIR / name).read_text(encoding="utf-8")

    def test_commands_in_one_process_match_goldens(self, capsys):
        argvs = dict(cases())
        for name in ("diamond-enriques-hilb-14.json", "verify-paper-n6.json",
                     "diamond-k3_enriques-quotient-H-5.txt",
                     "diamond-enriques-hilb-14.json"):
            assert run_main(capsys, *argvs[name])[:2] == (0, self.golden(name))

    def test_defaults_do_not_leak(self, capsys):
        spec = GOLDEN_DIR / "specs" / "seeded-surface-3.json"
        code, out, _ = run_main(capsys, "diamond", "--format", "json", "--spec",
                                str(spec), "sym", "1")
        assert code == 0 and json.loads(out)["name"] == "sym 1 of seeded-surface-3"
        code, out, _ = run_main(capsys, "diamond", "sym", "1")
        want = cli._render_hodge("sym 1 of k3_enriques",
                                 preset("k3_enriques").forget(), "table")
        assert (code, out) == (0, want + "\n")

    def test_usage_error_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diamond", "frobnicate", "2"])
        assert exc.value.code == 2
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err
        name = "diamond-k3_enriques-quotient-H-5.txt"
        assert run_main(capsys, *dict(cases())[name])[:2] == (0, self.golden(name))


#: argv, exit code, where the phrase shows and the phrase.  "usage" is a
#: usage error: SystemExit(2) with the usage, then the phrase, on stderr;
#: "help" is SystemExit(0) with the usage on stdout; "out" and "err" are the
#: streams of a command that ran.  The phrases are argparse's; each stops at
#: the offending word, as argparse words its "(choose from ...)" list
#: differently between Pythons.
USAGE_CASES = [
    ((), 2, "usage", "the following arguments are required: command"),
    (("frob",), 2, "usage", "argument command: invalid choice: 'frob'"),
    (("diamond", "hilb"), 2, "usage", "the following arguments are required: n"),
    (("diamond", "hilb", "x"), 2, "usage", "argument n: invalid int value: 'x'"),
    (("diamond", "quotient", "2", "K"), 2, "usage", "argument subgroup: invalid choice: 'K'"),
    (("diamond", "--preset", "k3", "--spec", "s.json", "hilb", "2"), 2, "usage",
     "argument --spec: not allowed with argument --preset"),
    (("diamond", "quotient", "2", "H", "extra"), 2, "usage", "unrecognized arguments: extra"),
    (("diamond", "--bogus", "hilb", "2"), 2, "usage", "unrecognized arguments: --bogus"),
    (("diamond", "--format"), 2, "usage", "argument --format: expected one argument"),
    (("verify-paper", "--n-max", "x"), 2, "usage", "argument --n-max: invalid int value: 'x'"),
    (("diamond", "--format=json", "hilb", "2"), 0, "out", '"name": "hilb 2 of k3_enriques"'),
    (("diamond", "hilb", "--format", "json", "2"), 0, "out", '"name": "hilb 2 of k3_enriques"'),
    (("diamond", "--form", "json", "hilb", "2"), 0, "out", '"name": "hilb 2 of k3_enriques"'),
    (("diamond", "hilb", "-1"), 2, "err", "error: n must be >= 1, got -1"),
    # a lone "-", a negative decimal and a word holding a space are values;
    # "-1x" is an option, unless a flag's "=" comes first
    (("diamond", "-", "2"), 2, "usage", "argument op: invalid choice: '-'"),
    (("diamond", "hilb", "2", "-"), 2, "usage", "argument subgroup: invalid choice: '-'"),
    (("diamond", "--format", "-"), 2, "usage", "argument --format: invalid choice: '-'"),
    (("diamond", "--spec", "-", "hilb", "2"), 2, "err", "No such file or directory: '-'"),
    (("diamond", "hilb", "-.5"), 2, "usage", "argument n: invalid int value: '-.5'"),
    (("verify-paper", "--n-max", "-.5"), 2, "usage",
     "argument --n-max: invalid int value: '-.5'"),
    (("diamond", "hilb", "-1x"), 2, "usage", "the following arguments are required: n"),
    (("diamond", "hilb", "2", "-x y"), 2, "usage", "argument subgroup: invalid choice: '-x y'"),
    (("diamond", "--format=a b", "hilb", "2"), 2, "usage",
     "argument --format: invalid choice: 'a b'"),
    # each use of a repeated option is checked as it is read, not only the last
    (("diamond", "--format=a b", "--format", "json", "hilb", "2"), 2, "usage",
     "argument --format: invalid choice: 'a b'"),
    (("verify-paper", "--n-max", "x", "--n-max", "2"), 2, "usage",
     "argument --n-max: invalid int value: 'x'"),
    # three departures from argparse, kept as they are: an unknown option
    # before the command (argparse: "argument command: invalid choice:
    # 'hilb'"), one between positionals (argparse: "unrecognized arguments:
    # -x H"), and "--=x", a prefix of every flag (argparse: "ambiguous option")
    (("-x", "hilb", "2"), 2, "usage", "the following arguments are required: command"),
    (("diamond", "quotient", "2", "-x", "H"), 2, "usage", "unrecognized arguments: -x\n"),
    (("diamond", "--=x", "hilb", "2"), 2, "usage", "unrecognized arguments: --=x\n"),
    (("-h",), 0, "help", "verify-paper"),
    (("diamond", "-h"), 0, "help", "--preset {" + ",".join(sorted(bigraded.PRESETS)) + "}"),
    (("verify-paper", "--help"), 0, "help", "--n-max"),
]


@pytest.mark.parametrize("argv, code, stream, phrase", USAGE_CASES,
                         ids=[" ".join(case[0]) or "no-command" for case in USAGE_CASES])
def test_usage_contract(capsys, monkeypatch, tmp_path, argv, code, stream, phrase):
    monkeypatch.chdir(tmp_path)  # so that a file named "-" is missing
    with pytest.raises(SystemExit) if stream in ("usage", "help") else nullcontext() as exc:
        returned = main(list(argv))
    out, err = capsys.readouterr()
    if stream == "usage":
        assert (exc.value.code, out) == (code, "")
        assert err.startswith("usage: hodgekit") and phrase in err
    elif stream == "help":
        assert (exc.value.code, err) == (code, "")
        assert out.startswith("usage: hodgekit") and phrase in out
    else:
        assert returned == code
        assert phrase in (out if stream == "out" else err)


class TestSurfaceSpecInput:
    def write(self, tmp_path, doc):
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_spec_file_accepted(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "name": "custom", "dimension": 2,
            "hodge": [[0, 0, 1, 0], [1, 1, 2, 1], [2, 2, 1, 0]],
        })
        code, out, _ = run_main(capsys, "diamond", "--spec", path,
                                "--format", "json", "quotient", "2", "H")
        assert code == 0
        assert "custom" in json.loads(out)["name"]

    def test_empty_hodge_exits_2(self, capsys, tmp_path):
        # no surface has h^(0,0) = 0; the renderer's empty case is covered
        # by TestRenderHodgeJson
        path = self.write(tmp_path, {"name": "empty", "dimension": 2, "hodge": []})
        code, out, err = run_main(capsys, "diamond", "--spec", path,
                                  "--format", "json", "hilb", "2")
        assert code == 2 and out == ""
        assert "h^(0,0) of the + eigenspace is 0" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_main(capsys, "diamond", "--spec", str(path), "hilb", "2")
        assert code == 2 and "invalid JSON" in err

    def test_non_utf8_spec_exits_2_naming_the_file(self, capsys, tmp_path):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff")
        code, out, err = run_main(capsys, "diamond", "--spec", str(path), "sym", "2")
        assert code == 2 and out == ""
        assert f"surface spec {path}: not UTF-8" in err

    def test_schema_error_exits_2(self, capsys, tmp_path):
        path = self.write(tmp_path, {"name": "x", "hodge": []})
        code, _, _ = run_main(capsys, "diamond", "--spec", str(path), "hilb", "2")
        assert code == 2

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_main(capsys, "diamond", "--spec",
                                str(tmp_path / "none.json"), "hilb", "2")
        assert code == 2 and "none.json" in err

    def test_non_geometric_spec_exits_2(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "name": "bad", "dimension": 2,
            "hodge": [[0, 0, 1, 0], [3, 1, 5, 0], [4, 0, 0, 2]],
        })
        code, out, err = run_main(capsys, "diamond", "--spec", path, "hilb", "2")
        assert code == 2 and out == ""
        assert "(3, 1)" in err

    # one more fault beside an odd entry: the odd entry is refused first
    faults = pytest.mark.parametrize("dimension, rows, named", [
        (2, [[0, 0, 1, 0], [-2, 0, 1, 0], [2, 2, 1, 0]],
         "surface spec: invalid bidegree (-2, 0)"),
        (-1, [[0, 0, 1, 0]], "surface spec: dimension must be nonnegative, got -1"),
        (2, [[0, 0, 1, 0], [3, 1, 1, 0], [2, 2, 1, 0]],
         "surface spec: entry at (3, 1) exceeds dimension 2"),
        (2, [[0, 0, 1, 0], [5, 1, 1, 0], [2, 2, 1, 0]],
         "surface spec: entry at (5, 1) exceeds dimension 2"),
    ], ids=["negative-bidegree", "negative-dimension", "above-dimension",
            "above-weight-bound"])

    @faults
    def test_odd_entry_refused_first_exits_3(self, capsys, tmp_path, dimension, rows,
                                             named):
        doc = {"name": "odd", "dimension": dimension, "hodge": rows + [[1, 0, 1, 0]]}
        with pytest.raises(OddCohomologyUnsupported, match=r"degree at \(1, 0\)"):
            parse_surface_spec(doc)
        code, out, err = run_main(capsys, "diamond", "--spec", self.write(tmp_path, doc),
                                  "hilb", "2")
        assert code == 3 and out == ""
        assert "odd total degree at (1, 0)" in err

    @faults
    def test_same_fault_without_odd_entry_exits_2(self, capsys, tmp_path, dimension,
                                                  rows, named):
        doc = {"name": "even", "dimension": dimension, "hodge": rows}
        with pytest.raises(ValueError) as refused:
            parse_surface_spec(doc)
        assert not isinstance(refused.value, OddCohomologyUnsupported)
        assert str(refused.value).startswith(named)
        code, out, err = run_main(capsys, "diamond", "--spec", self.write(tmp_path, doc),
                                  "hilb", "2")
        assert code == 2 and out == ""
        assert f"error: {named}" in err

    @pytest.mark.parametrize("rows, named", [
        ([[0, 0, 1, 0], [1, 0, 1.5, 0]], "surface spec: bad hodge row [1, 0, 1.5, 0]"),
        ([[0, 0, 1, 0], [1, 0, 1, 0], [1, 0, 1, 0]],
         "surface spec: duplicate entry at (1, 0)"),
    ], ids=["bad-row", "duplicate"])
    def test_shape_fault_refused_before_odd_entry_exits_2(self, capsys, tmp_path, rows,
                                                          named):
        # the loader's row checks come before the odd-degree refusal
        doc = {"name": "odd", "dimension": 2, "hodge": rows}
        with pytest.raises(ValueError) as refused:
            parse_surface_spec(doc)
        assert not isinstance(refused.value, OddCohomologyUnsupported)
        code, out, err = run_main(capsys, "diamond", "--spec", self.write(tmp_path, doc),
                                  "sym", "1")
        assert code == 2 and out == ""
        assert f"error: {named}" in err

    @pytest.mark.parametrize("op", ["hilb", "cover"])
    @pytest.mark.parametrize("dimension, rows", [
        (1, [[0, 0, 1, 0], [1, 1, 1, 0]]),
        (3, [[0, 0, 1, 0], [1, 1, 1, 0], [2, 2, 1, 0], [3, 3, 1, 0]]),
    ])
    def test_hilb_of_non_surface_exits_2(self, capsys, tmp_path, dimension, rows, op):
        path = self.write(tmp_path, {
            "name": "not-a-surface", "dimension": dimension, "hodge": rows,
        })
        code, out, err = run_main(capsys, "diamond", "--spec", path, op, "2")
        assert code == 2 and out == ""
        assert f"{op} needs a surface" in err
        assert "not-a-surface" in err and f"dimension {dimension}" in err

    @pytest.mark.parametrize("argv", [("sym", "1"), ("quotient", "1", "H")],
                             ids=["sym", "quotient"])
    def test_huge_dimension_exits_3_before_any_work(self, capsys, tmp_path,
                                                    monkeypatch, argv):
        # a spec of a few bytes would ask for 2D + 1 printed rows of up to
        # D + 1 cells, D the diamond's complex dimension
        d = 10 ** 6
        path = self.write(tmp_path, {
            "name": "huge", "dimension": d, "hodge": [[0, 0, 1, 0], [d, d, 1, 0]],
        })

        def refuse(*args, **kwargs):
            raise AssertionError("diamond work started")
        monkeypatch.setattr(cli, "format_diamond", refuse)
        monkeypatch.setattr(invariants, "_newton", refuse)
        code, out, err = run_main(capsys, "diamond", "--spec", path, *argv)
        assert code == 3 and out == ""
        assert "huge" in err and f"complex dimension {d}" in err
        assert f"diamond bound {cli.DIAMOND_DIMENSION_MAX}" in err

    def test_threefold_at_largest_n_accepted(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "name": "threefold", "dimension": 3,
            "hodge": [[0, 0, 1, 0], [1, 1, 1, 0], [2, 2, 1, 0], [3, 3, 1, 0]],
        })
        n = str(cli.DIAMOND_N_MAX)
        code, out, _ = run_main(capsys, "diamond", "--spec", path, "sym", n)
        assert code == 0
        assert out.startswith(f"sym {n} of threefold: complex dimension "
                              f"{cli.DIAMOND_DIMENSION_MAX},")

    def test_odd_cohomology_exits_3(self, capsys, tmp_path):
        path = self.write(tmp_path, {
            "name": "odd", "dimension": 1, "hodge": [[1, 0, 1, 0]],
        })
        code, _, err = run_main(capsys, "diamond", "--spec", path, "hilb", "2")
        assert code == 3 and "unsupported" in err


class TestVerifyPaper:
    def test_default_run_passes_with_two_noted(self, capsys):
        code, out, err = run_main(capsys, "verify-paper", "--format", "json")
        assert code == 0
        results = json.loads(out)
        statuses = [r["status"] for r in results]
        assert statuses.count("fail") == 0
        noted = [r["check_id"] for r in results if r["status"] == "discrepancy-noted"]
        assert noted == ["043-quot-k2-h22", "058-cover-n2-h22"]
        assert "fail: 0" in err

    def test_restricted_run_same_statuses(self, capsys):
        code, _, err = run_main(capsys, "verify-paper", "--n-max", "3")
        assert code == 0
        assert "fail: 0" in err
        assert "discrepancy-noted: 2" in err

    def test_n_max_lower_bound(self, capsys):
        code, _, err = run_main(capsys, "verify-paper", "--n-max", "1")
        assert code == 2 and "n-max" in err

    @pytest.mark.parametrize("n_max", ["21", "1000"])
    def test_n_max_above_bound_exits_3_before_any_check(self, capsys, monkeypatch,
                                                          n_max):
        def refuse(*args):
            raise AssertionError("checks started")
        monkeypatch.setattr(cli, "run_paper_checks", refuse)
        code, out, err = run_main(capsys, "verify-paper", "--n-max", n_max)
        assert code == 3 and out == ""
        assert f"--n-max <= {cli.VERIFY_N_MAX}" in err

    def test_table_and_json_contain_same_numbers(self, capsys):
        _, out_table, _ = run_main(capsys, "verify-paper", "--n-max", "3")
        _, out_json, _ = run_main(capsys, "verify-paper", "--n-max", "3",
                                  "--format", "json")
        for r in json.loads(out_json):
            assert r["check_id"] in out_table
            assert r["actual"] in out_table

    def test_deterministic_output(self, capsys):
        _, first, _ = run_main(capsys, "verify-paper", "--n-max", "4")
        _, second, _ = run_main(capsys, "verify-paper", "--n-max", "4")
        assert first == second

    def test_check_ids_emit_sorted(self):
        ids = [r.check_id for r in run_paper_checks(4)]
        assert ids == sorted(ids)

    def test_every_check_has_provenance(self):
        for r in run_paper_checks(3):
            assert r.provenance in ("PAPER", "DERIVED")

    def test_euler_mismatch_reports_fail_rows(self, capsys, monkeypatch):
        # a wrong generating function must surface as fail rows and exit 1,
        # with the rest of the report intact, not as a traceback
        monkeypatch.setattr(cli, "euler_product_coefficients",
                            lambda e, n_max: [1] + [0] * n_max)
        code, out, err = run_main(capsys, "verify-paper", "--n-max", "3",
                                  "--format", "csv")
        assert code == 1
        rows = out.splitlines()[1:]
        assert len(rows) == len(run_paper_checks(3))
        failed = [row.split(",")[0] for row in rows if row.endswith(",fail")]
        assert failed == ["080-euler-gf-enriques", "080-euler-gf-k3"]
        assert "fail: 2" in err

    def test_single_twist_row_reads_the_membership_rule(self, monkeypatch):
        # check 012 asks the rule the oracle credits every element by, not a
        # parity formula: a rule that also puts the single-slot twist in H
        # must fail the row
        rule = cli._groups_containing
        assert rule is group._groups_containing

        def leaky(mask):
            return [*rule(mask), "H"] if mask == 1 else rule(mask)

        monkeypatch.setattr(cli, "_groups_containing", leaky)
        rows = [r for r in run_paper_checks(3) if r.check_id.startswith("012-")]
        assert [(r.actual, r.status) for r in rows] == [("True", "fail")] * 3

    @staticmethod
    def failed_rows(monkeypatch, at, change):
        """Ids of the failed rows of run_paper_checks(6) when the census
        series at n = ``at`` is replaced by change(census)."""
        series = cli.census_series

        def faulty(n_max):
            out = series(n_max)
            out[at] = change(out[at])
            return out

        monkeypatch.setattr(cli, "census_series", faulty)
        return [r.check_id for r in run_paper_checks(6) if r.status == "fail"]

    def test_census_type_out_of_order_fails_check_011(self, monkeypatch):
        # a type with its parts out of order is not the type the explicit
        # census builds
        def reverse_one(census):
            i = next(i for i, (ct, _, _) in enumerate(census) if ct[::-1] != ct)
            ct, size, in_h = census[i]
            return [*census[:i], (ct[::-1], size, in_h), *census[i + 1:]]

        assert self.failed_rows(monkeypatch, 3, reverse_one) == ["011-group-enum-match-n3"]

    def test_census_size_off_by_one_fails_check_010(self, monkeypatch):
        def grow_first(census):
            (ct, size, in_h), *rest = census
            return [(ct, size + 1, in_h), *rest]

        assert (self.failed_rows(monkeypatch, 6, grow_first)
                == ["010-group-order-G-n6", "010-group-order-H-n6"])

    def test_shared_average_off_by_one_fails_check_090(self, monkeypatch):
        # both audit routes end in bigraded._average; a fault there makes
        # them agree with each other but not with production, which never
        # reaches it, so check 090 still fails (and the cover, which reads
        # the class-sum route)
        table, average = k3_enriques(), bigraded._average
        production = {(n, which): cli.invariant_dims(table, n, which)
                      for n in (1, 2, 3) for which in WHICH}

        def off_by_one(sums, order, dimension, what):
            return direct_sum(average(sums, order, dimension, what),
                              HodgeTable({(0, 0): 1}, 0))

        for module in (invariants, oracle):
            monkeypatch.setattr(module, "_average", off_by_one)
        assert [r.check_id for r in run_paper_checks(3) if r.status == "fail"] == [
            "050-cover-n2-h00", "059-cover-n2-euler-double",
            "090-oracle-equiv-n1", "090-oracle-equiv-n2", "090-oracle-equiv-n3"]
        for n in (1, 2, 3):
            audited = oracle.projector_tables(table, n)
            for which in WHICH:
                assert cli.invariant_dims(table, n, which) == production[n, which]
                assert invariants.class_sum_dims(table, n, which) == audited[which]
                assert audited[which] != production[n, which]

    def test_one_hilbert_series_per_surface(self, monkeypatch):
        built = []
        series = cli.hilbert_series

        def counted(surface, n_max):
            built.append(n_max)
            return series(surface, n_max)

        monkeypatch.setattr(cli, "hilbert_series", counted)
        run_paper_checks(6)
        assert built == [6, 6]

    @pytest.fixture
    def calls(self, monkeypatch):
        """Arguments of every call to the quotient engine, the orbit count
        and the projector oracle, recorded in each namespace that calls them."""
        log = {name: [] for name in ("invariant_dims", "invariant_series",
                                     "exceptional_orbits", "projector_tables")}

        def wrap(module, name):
            inner = getattr(module, name)

            def counted(*args):
                log[name].append(args)
                return inner(*args)

            monkeypatch.setattr(module, name, counted)

        wrap(cli, "invariant_dims")
        wrap(cli, "invariant_series")
        for module in (cli, cover):
            wrap(module, "exceptional_orbits")
        wrap(cli, "projector_tables")
        return log

    def test_each_quotient_built_once(self, calls):
        # every H quotient comes from one series, as the Hilbert schemes do
        run_paper_checks(6)
        assert [args[1:] for args in calls["invariant_series"]] == [(6, "H")]
        assert len(calls["invariant_dims"]) <= 15

    def test_each_orbit_count_once(self, calls):
        run_paper_checks(6)
        assert calls["exceptional_orbits"] == [(n,) for n in range(2, 7)]

    def test_each_projector_table_once(self, calls):
        run_paper_checks(6)
        assert [args[1:] for args in calls["projector_tables"]] == [(1,), (2,), (3,)]


def module_env():
    """The environment of a ``python -m hodgekit.cli`` child that imports the
    package under test, also when pytest alone put it on the path."""
    src = str(Path(hodgekit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_module(*argv):
    return subprocess.run([sys.executable, "-m", "hodgekit.cli", *argv],
                          capture_output=True, text=True, env=module_env())


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = run_module("diamond", "--preset", "enriques", "sym", "2")
        assert proc.returncode == 0
        assert "56" in proc.stdout

    def test_usage_error_exit_code(self):
        proc = run_module("diamond", "frobnicate", "2")
        assert proc.returncode == 2

    def test_closed_stdout_ends_quietly(self):
        # as in `hodgekit diamond --preset k3 hilb 40 | head -c 10`: the
        # 233 kB diamond overfills the pipe, so a write fails after the close
        proc = subprocess.Popen([sys.executable, "-m", "hodgekit.cli", "diamond",
                                 "--preset", "k3", "hilb", "40"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=module_env())
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert head == b"hilb 40 of" and err == b""
