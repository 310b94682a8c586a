"""CLI surface: JSON schemas, exit codes, formats, caching."""
import json

import pytest

from hurwitz.cli import main


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *args):
    code, out = run(capsys, *args)
    return code, json.loads(out)


class TestClassInfo:
    def test_schema_and_values(self, capsys):
        code, r = run_json(capsys, "class-info", "--d", "4", "--class", "2,1,1")
        assert code == 0
        assert r["schema_version"] == 1
        for key in ("d", "cycle_type", "n_C", "k_C", "f_C", "parity",
                    "m_C", "m_C_constrained", "N_C_bound", "witness"):
            assert key in r
        assert r["cycle_type"] == [2, 1, 1]
        assert (r["n_C"], r["k_C"], r["f_C"]) == (2, 6, 2)
        assert r["parity"] == "odd"
        assert r["m_C"] == 1 and r["m_C_constrained"] == 1
        assert r["N_C_bound"] == 76
        assert r["witness"] == ["(1,2)"]

    def test_even_class(self, capsys):
        code, r = run_json(capsys, "class-info", "--d", "4", "--class", "3,1")
        assert code == 0
        assert r["parity"] == "even"
        assert r["m_C"].startswith("not applicable")
        assert r["generates_full_group"] is False

    def test_no_fixed_points(self, capsys):
        code, r = run_json(capsys, "class-info", "--d", "4", "--class", "4")
        assert code == 0
        assert r["m_C"] == 3
        assert r["m_C_constrained"].startswith("not applicable")
        assert str(r["N_C_bound"]).startswith("not applicable")

    def test_limit_exhaustion_exit_code(self, capsys):
        code, r = run_json(capsys, "class-info", "--d", "4", "--class", "4",
                           "--limit", "1")
        assert code == 2
        assert r["m_C"].startswith("unknown")


class TestOrbitEquiv:
    def test_orbit(self, capsys):
        code, r = run_json(capsys, "orbit", "--d", "3", "--word", "(1,2)(2,3)")
        assert code == 0
        assert r["orbit_size"] == 3 and r["complete"]
        assert r["canonical"] == ["(2,3)", "(1,3)"]

    @pytest.mark.parametrize("conj", [[], ["--conj"]])
    def test_orbit_of_the_empty_word(self, capsys, conj):
        # the empty word is its whole orbit, and its own least word
        code, r = run_json(capsys, "orbit", "--d", "3", "--word", "()", *conj)
        assert code == 0
        assert (r["orbit_size"], r["complete"], r["canonical"]) == (1, True, [])

    def test_orbit_limit(self, capsys):
        code, r = run_json(capsys, "--max-states", "2", "orbit", "--d", "3",
                           "--word", "(1,2)(2,3)(1,2)")
        assert code == 2
        assert not r["complete"]

    def test_equiv_yes_and_no(self, capsys):
        code, r = run_json(capsys, "equiv", "--d", "3",
                           "--word1", "(1,2)(2,3)", "--word2", "(1,3)(1,2)")
        assert code == 0 and r["result"] == "yes" and r["certificate"] == ["R1"]
        code, r = run_json(capsys, "equiv", "--d", "3",
                           "--word1", "(1,2)(1,2)", "--word2", "(1,3)(1,3)")
        assert code == 0 and r["result"] == "no"

    def test_equiv_unknown(self, capsys):
        code, r = run_json(capsys, "--max-states", "2", "equiv", "--d", "4",
                           "--word1", "(1,2)(2,3)(3,4)(1,3)",
                           "--word2", "(2,3)(1,3)(3,4)(1,2)")
        assert r["result"] in ("unknown", "no")
        if r["result"] == "unknown":
            assert code == 2


class TestFiberScan:
    def test_fiber_count(self, capsys):
        code, r = run_json(capsys, "fiber-count", "--d", "3", "--type", "2,1:4",
                           "--product", "()", "--full-group")
        assert code == 0
        assert (r["fiber_size"], r["orbit_count"]) == (24, 1)
        assert len(r["representatives"]) == 1

    def test_fiber_count_unconstrained_by_default(self, capsys):
        # with no constraint flag every word of the fiber counts, (t, t) for each t
        code, r = run_json(capsys, "fiber-count", "--d", "3", "--type", "2,1:2")
        assert code == 0 and r["query"]["constraint"] == "none"
        assert (r["fiber_size"], r["orbit_count"]) == (3, 3)
        code, r = run_json(capsys, "fiber-count", "--d", "3", "--type", "2,1:2", "--full-group")
        assert code == 0 and r["query"]["constraint"] == "full_group"
        assert (r["fiber_size"], r["orbit_count"]) == (0, 0)

    def test_fiber_parity_empty(self, capsys):
        code, r = run_json(capsys, "fiber-count", "--d", "3", "--type", "2,1:2",
                           "--product", "(1,2)")
        assert code == 0 and r["fiber_size"] == 0 and r["orbit_count"] == 0

    def test_stable_length_json_and_csv(self, capsys):
        code, r = run_json(capsys, "stable-length", "--d", "3", "--class", "2,1",
                           "--product", "()", "--from", "2", "--to", "6")
        assert code == 0
        assert [(row["n"], row["fiber_size"], row["orbits"]) for row in r["rows"]] == [
            (2, 0, 0), (3, 0, 0), (4, 24, 1), (5, 0, 0), (6, 240, 1)]
        code, out = run(capsys, "--format", "csv", "stable-length", "--d", "3",
                        "--class", "2,1", "--product", "()", "--from", "2", "--to", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,fiber_size,orbits,complete"
        assert len(lines) == 6

    def test_csv_needs_rows(self, capsys):
        code, out = run(capsys, "--format", "csv", "class-info", "--d", "3",
                        "--class", "2,1")
        assert code == 3


class TestConstructVerify:
    @pytest.mark.parametrize("element,length", [
        ("h", 9), ("sbar", 1), ("c", 6), ("y", 7), ("z", 7), ("hC", 63)])
    def test_construct_elements(self, capsys, element, length):
        code, r = run_json(capsys, "construct", "--d", "4", "--class", "2,1,1",
                           "--element", element)
        assert code == 0
        assert r["length"] == length
        assert len(r["word"]) == length

    def test_construct_h_needs_no_class(self, capsys):
        code, r = run_json(capsys, "construct", "--d", "5", "--element", "h")
        assert code == 0 and r["length"] == 12

    def test_construct_z_pair(self, capsys):
        code, r = run_json(capsys, "construct", "--d", "4", "--class", "2,1,1",
                           "--element", "z", "--i", "2", "--j", "4")
        assert code == 0 and r["alpha"] == "(2,4)"

    @pytest.mark.parametrize("element,given,named", [
        ("y", ["--i", "3", "--j", "4"], {"k": None}),
        ("y", ["--k", "4", "--i", "3"], {"k": 4}),
        ("z", ["--i", "2", "--j", "4", "--k", "4"], {"i": 2, "j": 4}),
        ("sbar", ["--k", "4"], {"i": 1, "j": 2}),
        ("c", ["--i", "3", "--j", "4", "--k", "4"], {}),
        ("hC", ["--i", "3"], {}),
    ])
    def test_construct_query_names_only_the_options_read(self, capsys, element, given, named):
        # --i/--j choose the pair of sbar and z, --k the stage of y; an
        # option the element ignores is not echoed as if it were used.
        code, r = run_json(capsys, "construct", "--d", "4", "--class", "2,1,1",
                           "--element", element, *given)
        assert code == 0
        assert r["query"] == {"d": 4, "class": "2,1,1", "element": element, **named}

    def test_construct_h_ignores_the_stage(self, capsys):
        code, r = run_json(capsys, "construct", "--d", "4", "--element", "h", "--k", "0")
        assert code == 0
        assert r["query"] == {"d": 4, "class": None, "element": "h"}

    def test_verify_lengths(self, capsys):
        code, r = run_json(capsys, "verify", "--d", "4", "--class", "2,1,1",
                           "--claim", "lengths")
        assert code == 0 and not r["falsified"]

    def test_verify_relations(self, capsys):
        code, r = run_json(capsys, "--max-states", "200000", "verify", "--d", "3",
                           "--claim", "relations", "--samples", "3")
        assert code == 0 and not r["falsified"] and r["complete"]

    def test_verify_claim2_at_a_state_limit(self, capsys):
        code, r = run_json(capsys, "--max-states", "2", "verify", "--d", "4",
                           "--class", "2,1,1", "--claim", "2")
        assert code == 2 and not r["complete"]
        assert r["summary"]["class_count"] is None
        assert all("classes undecided" in row["detail"] for row in r["rows"])

    def test_verify_claim5_d3(self, capsys):
        code, r = run_json(capsys, "--max-states", "200000", "verify", "--d", "3",
                           "--class", "2,1", "--claim", "5", "--samples", "2")
        assert code == 0
        assert all(row["status"] == "yes" for row in r["rows"])


class TestComponents:
    def test_d3_b2(self, capsys):
        code, r = run_json(capsys, "components", "--d", "3", "--b", "2")
        assert code == 0 and r["total_components"] == 1
        code, r = run_json(capsys, "components", "--d", "3", "--b", "2",
                           "--no-transitive")
        assert code == 0 and r["total_components"] == 2

    def test_d2_even_b(self, capsys):
        for b in (2, 4, 6):
            code, r = run_json(capsys, "components", "--d", "2", "--b", str(b))
            assert code == 0 and r["total_components"] == 1

    def test_full_group_single_type(self, capsys):
        code, r = run_json(capsys, "components", "--d", "3", "--b", "4",
                           "--type", "2,1:4", "--full-group")
        assert code == 0
        assert r["rows"] == [{"type": "2,1:4", "fiber_size": 24,
                              "components": 1, "complete": True}]

    def test_type_length_mismatch(self, capsys):
        code, _ = run(capsys, "components", "--d", "3", "--b", "3", "--type", "2,1:4")
        assert code == 3


class TestTheoremReport:
    def test_no_falsification(self, capsys):
        code, r = run_json(capsys, "theorem1-report", "--d", "4", "--class", "2,1,1",
                           "--from", "2", "--to", "6")
        assert code == 0
        assert r["N_C_bound"] == 76
        assert r["falsification_found"] is False
        assert [row["n"] for row in r["rows"]] == [2, 3, 4, 5, 6]

    def test_rejected_class(self, capsys):
        code, _ = run(capsys, "theorem1-report", "--d", "4", "--class", "4")
        assert code == 3

    def test_all_unknown_exit(self, capsys):
        code, r = run_json(capsys, "--max-fiber", "1", "theorem1-report", "--d", "4",
                           "--class", "2,1,1", "--from", "6", "--to", "6")
        assert code == 2
        assert r["all_rows_unknown"] is True


D4_WORD = "(1,2) (2,3) (3,4) (1,2) (1,3)"


class TestExitCodes:
    """One rule for every command: 1 when a falsification is found, 2 when a
    limit leaves every row open, 0 otherwise."""

    @pytest.mark.parametrize("args, want", [
        # a normal run
        (["class-info", "--d", "4", "--class", "2,1,1"], 0),
        (["orbit", "--d", "3", "--word", "(1,2)(2,3)"], 0),
        (["equiv", "--d", "3", "--word1", "(1,2)(1,2)", "--word2", "(1,3)(1,3)"], 0),
        (["fiber-count", "--d", "3", "--type", "2,1:4", "--full-group"], 0),
        (["stable-length", "--d", "3", "--class", "2,1", "--from", "2", "--to", "4"], 0),
        (["construct", "--d", "4", "--class", "2,1,1", "--element", "y"], 0),
        (["verify", "--d", "4", "--class", "2,1,1", "--claim", "lengths"], 0),
        (["components", "--d", "3", "--b", "2"], 0),
        (["theorem1-report", "--d", "4", "--class", "2,1,1", "--from", "2", "--to", "4"], 0),
        # a limit that leaves every row open
        (["class-info", "--d", "5", "--class", "4,1", "--limit", "1"], 2),
        (["--max-states", "100", "orbit", "--d", "4", "--word", D4_WORD], 2),
        (["--max-states", "3", "equiv", "--d", "4", "--word1", "(1,2) (2,3) (3,4) (1,3)",
          "--word2", "(3,4) (1,4) (1,3) (2,3)"], 2),
        (["--max-fiber", "1000", "fiber-count", "--d", "4", "--type", "2,1,1:6",
          "--full-group"], 2),
        (["--max-fiber", "2", "stable-length", "--d", "4", "--class", "2,1,1",
          "--from", "6", "--to", "6"], 2),
        (["--max-states", "2", "verify", "--d", "3", "--claim", "relations"], 2),
        (["--max-fiber", "1", "components", "--d", "3", "--b", "4", "--type", "2,1:4"], 2),
        (["--max-fiber", "2", "theorem1-report", "--d", "4", "--class", "2,1,1",
          "--from", "6", "--to", "6"], 2),
        # a limit that leaves only some rows open
        (["--max-states", "2", "verify", "--d", "4", "--class", "2,1,1", "--claim", "1"], 0),
        (["--max-fiber", "1000", "stable-length", "--d", "4", "--class", "2,1,1",
          "--from", "2", "--to", "8"], 0),
    ])
    def test_exit_code(self, capsys, args, want):
        assert run(capsys, *args)[0] == want

    def test_falsified_claim_exits_1(self, capsys, monkeypatch):
        # every positive row of claim 1 reads "no"
        import hurwitz.constructions as constructions
        from hurwitz.orbits import EquivalenceReport
        monkeypatch.setattr(constructions, "are_equivalent",
                            lambda w1, w2, limits: EquivalenceReport("no", None, 0))
        code, r = run_json(capsys, "verify", "--d", "4", "--class", "2,1,1", "--claim", "1")
        assert code == 1 and r["falsified"] is True

    @pytest.mark.parametrize("open_row", [False, True])
    def test_falsified_theorem_report_exits_1(self, capsys, monkeypatch, open_row):
        # a complete row past the bound with two orbits, beside an open row or not
        from hurwitz import reports
        from hurwitz.orbits import ScanRow
        rows = [ScanRow(76, 10, 2, True)]
        if open_row:
            rows.append(ScanRow(77, None, None, False, "max_fiber=1"))
        monkeypatch.setattr(reports, "stable_length_scan", lambda *args: rows)
        code, r = run_json(capsys, "theorem1-report", "--d", "4", "--class", "2,1,1",
                           "--from", "76", "--to", "77")
        assert code == 1 and r["falsifications"] == [76]


class TestPlumbing:
    def test_usage_errors(self, capsys):
        assert run(capsys, "class-info", "--d", "4")[0] == 3
        assert run(capsys, "class-info", "--d", "4", "--class", "9,9")[0] == 3
        assert run(capsys, "orbit", "--d", "3", "--word", "(1,2")[0] == 3
        assert run(capsys, "nonsense")[0] == 3
        assert run(capsys, "--max-states", "1", "orbit", "--d", "3",
                   "--word", "(1,2)(2,3)")[0] == 3
        assert run(capsys, "--max-fiber", "0", "orbit", "--d", "3",
                   "--word", "(1,2)(2,3)")[0] == 3
        assert run(capsys, "--workers", "0", "orbit", "--d", "3",
                   "--word", "(1,2)(2,3)")[0] == 3
        # a type never holds the identity class, and a scan range is never empty
        assert run(capsys, "fiber-count", "--d", "3", "--type", "1,1,1:2")[0] == 3
        assert run(capsys, "stable-length", "--d", "1", "--class", "1",
                   "--from", "1", "--to", "2")[0] == 3
        assert run(capsys, "components", "--d", "3", "--b", "2", "--type", "1,1,1:2",
                   "--no-transitive")[0] == 3
        assert run(capsys, "theorem1-report", "--d", "4", "--class", "2,1,1",
                   "--from", "5", "--to", "3")[0] == 3
        # a sampled claim checks at least one sample
        assert run(capsys, "verify", "--d", "3", "--claim", "relations",
                   "--samples", "-1")[0] == 3
        assert run(capsys, "verify", "--d", "3", "--class", "2,1", "--claim", "5",
                   "--samples", "0")[0] == 3
        assert run(capsys, "verify", "--d", "1", "--claim", "relations")[0] == 3
        # a negative search depth is no search that ran out of depth
        assert run(capsys, "class-info", "--d", "3", "--class", "2,1", "--limit", "-1")[0] == 3
        assert run(capsys, "theorem1-report", "--d", "4", "--class", "2,1,1",
                   "--limit", "-1")[0] == 3
        # stage 0 is a stage given, not the default stage d
        assert main(["construct", "--d", "5", "--class", "2,1,1,1", "--element", "y",
                     "--k", "0"]) == 3
        assert "stage must satisfy 4 <= k <= degree, got 0" in capsys.readouterr().err
        # a word holds no identity factor, and the message names no Python argument
        assert main(["equiv", "--d", "3", "--word1", "(1,2) ()", "--word2", "(1,2)"]) == 3
        err = capsys.readouterr().err
        assert "identity factors are not allowed in a word" in err and "=" not in err

    def test_program_fault_exits_4(self, capsys, monkeypatch):
        # a certificate that does not replay is a fault, not a falsification (exit 1)
        import hurwitz.constructions as constructions
        from hurwitz.orbits import EquivalenceReport
        from hurwitz.words import Move
        monkeypatch.setattr(constructions, "are_equivalent",
                            lambda w1, w2, limits: EquivalenceReport("yes", (Move(1, "R"),), 0))
        assert main(["verify", "--d", "4", "--class", "2,1,1", "--claim", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:")

    def test_any_exception_is_a_fault(self, capsys, monkeypatch):
        # a short-block certificate missing on "yes" breaks an assert (a TypeError
        # under python -O); either way a fault, never exit 1
        import hurwitz.constructions as constructions
        from hurwitz.orbits import EquivalenceReport
        monkeypatch.setattr(constructions, "are_equivalent",
                            lambda w1, w2, limits: EquivalenceReport("yes", None, 0))
        assert main(["verify", "--d", "4", "--class", "2,1,1", "--claim", "3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:")

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_text_format(self, capsys):
        code, out = run(capsys, "--format", "text", "class-info", "--d", "3",
                        "--class", "2,1")
        assert code == 0
        assert "n_C: 2" in out

    def test_text_format_rows(self, capsys):
        code, out = run(capsys, "--format", "text", "components", "--d", "3", "--b", "4")
        assert code == 0
        assert "total_components: 3\n" in out
        assert "\n  type=2,1:4  fiber_size=24  components=1  complete=True\n" in out
        assert "rows:" not in out

    def test_text_format_words(self, capsys):
        # a list of words prints each word's factors, the words apart by " | "
        code, out = run(capsys, "--format", "text", "fiber-count", "--d", "3", "--type", "2,1:2")
        assert code == 0
        assert "\nrepresentatives: (2,3) (2,3) | (1,2) (1,2) | (1,3) (1,3)\n" in out

    def test_unusable_cache_dir_is_a_usage_error(self, capsys, tmp_path):
        # refused before anything is computed, with no payload
        (tmp_path / "file").write_text("")
        assert main(["--cache-dir", str(tmp_path / "file" / "sub"), "class-info",
                     "--d", "3", "--class", "2,1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot use --cache-dir" in captured.err

    def test_cache_round_trip(self, capsys, tmp_path):
        args = ["--cache-dir", str(tmp_path), "fiber-count", "--d", "3",
                "--type", "2,1:4", "--product", "()", "--full-group"]
        code1, out1 = run(capsys, *args)
        assert len(list(tmp_path.glob("*.json"))) == 1
        code2, out2 = run(capsys, *args)
        assert (code1, out1) == (code2, out2)

    def test_cache_distinguishes_queries(self, capsys, tmp_path):
        base = ["--cache-dir", str(tmp_path)]
        run(capsys, *base, "orbit", "--d", "3", "--word", "(1,2)(2,3)")
        run(capsys, *base, "orbit", "--d", "3", "--word", "(1,2)(1,2)")
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_corrupt_cache_recomputes(self, capsys, tmp_path):
        args = ["--cache-dir", str(tmp_path), "orbit", "--d", "3", "--word", "(1,2)(2,3)"]
        _, out1 = run(capsys, *args)
        for f in tmp_path.glob("*.json"):
            f.write_text("not json")
        code, out2 = run(capsys, *args)
        assert code == 0 and out1 == out2

    def test_tampered_payload_recomputes(self, capsys, tmp_path):
        args = ["--cache-dir", str(tmp_path), "orbit", "--d", "3", "--word", "(1,2)(2,3)"]
        _, out1 = run(capsys, *args)
        for f in tmp_path.glob("*.json"):
            entry = json.loads(f.read_text())
            tampered = entry["payload"].replace('"orbit_size": 3', '"orbit_size": 4')
            assert tampered != entry["payload"]
            entry["payload"] = tampered
            f.write_text(json.dumps(entry))
        code, out2 = run(capsys, *args)
        assert code == 0 and out1 == out2

    def test_workers_flag_does_not_change_output(self, capsys):
        _, out1 = run(capsys, "--workers", "1", "orbit", "--d", "3", "--word", "(1,2)(2,3)")
        _, out4 = run(capsys, "--workers", "4", "orbit", "--d", "3", "--word", "(1,2)(2,3)")
        assert out1 == out4

    def test_seed_recorded(self, capsys):
        _, r = run_json(capsys, "--seed", "17", "orbit", "--d", "3", "--word", "(1,2)(1,2)")
        assert r["seed"] == 17
