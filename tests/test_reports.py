"""Report assembly, exit-code mapping, serialization, component counting."""
import json

import pytest

from hurwitz import reports
from hurwitz.constructions import ClaimReport, ClaimRow
from hurwitz.orbits import SearchLimits
from hurwitz.perms import Perm
from hurwitz.reports import (
    ComponentQuery,
    RunConfig,
    cache_key,
    count_components,
    emit,
    exit_code,
    make_report,
    theorem_report,
    to_csv,
    to_json,
)
from hurwitz.words import TypeVector

import oracle

LIM = SearchLimits(max_states=200_000, max_fiber=200_000)
CFG = RunConfig(limits=LIM)


class TestExitCodes:
    @staticmethod
    def claim_code(*rows):
        # as verify reads a claim report
        report = ClaimReport("1", list(rows))
        return exit_code([row.status != "unknown" for row in report.rows], report.falsified)

    def test_claim_codes(self):
        assert self.claim_code(ClaimRow("a", "yes", "yes")) == 0
        assert self.claim_code(ClaimRow("a", "yes", "no")) == 1
        assert self.claim_code(ClaimRow("a", "yes", "unknown")) == 2
        assert self.claim_code(ClaimRow("a", "yes", "yes"), ClaimRow("b", "yes", "unknown")) == 0
        assert self.claim_code(ClaimRow("a", "no", "no")) == 0

    def test_theorem_codes(self):
        assert exit_code([True, False], falsified=True) == 1
        assert exit_code([False, False], falsified=True) == 1
        assert exit_code([False, False]) == 2
        assert exit_code([True, False]) == 0

    def test_components_codes(self):
        assert exit_code([False]) == 2
        assert exit_code([False, True]) == 0
        assert exit_code([True]) == 0

    def test_no_rows(self):
        # nothing was left open: construct, and a claim with no rows
        assert exit_code([]) == 0
        assert self.claim_code() == 0


class TestSerialization:
    def test_json_stable_and_versioned(self):
        report = make_report("orbit", {"d": 3}, CFG, {"x": 1})
        text = to_json(report)
        assert text == to_json(report)
        parsed = json.loads(text)
        assert parsed["schema_version"] == 1
        assert list(parsed)[:5] == ["schema_version", "command", "query", "seed", "limits"]

    def test_csv_row_count(self):
        report = {"rows": [{"n": 2, "orbits": 0}, {"n": 4, "orbits": 1}]}
        lines = to_csv(report).strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == "n,orbits"

    def test_csv_rejects_scalar_reports(self):
        with pytest.raises(ValueError):
            to_csv({"x": 1})

    def test_cache_key_sensitivity(self, monkeypatch):
        k1 = cache_key("orbit", {"d": 3}, CFG)
        assert k1 == cache_key("orbit", {"d": 3}, CFG)
        assert k1 != cache_key("orbit", {"d": 4}, CFG)
        assert k1 != cache_key("equiv", {"d": 3}, CFG)
        assert k1 != cache_key("orbit", {"d": 3}, RunConfig(seed=1))
        with monkeypatch.context() as m:
            m.setattr(reports, "__version__", "0.0.0-other")
            assert k1 != cache_key("orbit", {"d": 3}, CFG)
        with monkeypatch.context() as m:
            m.setattr(reports, "source_digest", lambda: "0" * 64)
            assert k1 != cache_key("orbit", {"d": 3}, CFG)
        assert k1 == cache_key("orbit", {"d": 3}, CFG)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(output_format="yaml")


class TestComponents:
    def test_per_type_sum_matches_untyped_oracle_partition(self):
        # summed per-type counts equal one flood over all length-4 words
        # with identity product and full monodromy at degree 3
        body = count_components(ComponentQuery(3, 4, None, galois_full=True,
                                               transitive_only=True,
                                               conjugation_quotient=False), LIM)
        import itertools
        pool = [p for p in itertools.permutations(range(3))
                if p != oracle.o_identity(3)]
        words = [w for w in itertools.product(pool, repeat=4)
                 if oracle.o_product(w, 3) == oracle.o_identity(3)
                 and len(oracle.o_subgroup(3, w)) == 6]
        assert body["total_components"] == len(oracle.o_partition(words))

    def test_parity_pruned_rows(self):
        body = count_components(ComponentQuery(3, 3, None, False, True, True), LIM)
        # products of three odd or mixed-parity factors never reach the identity
        # unless the parities sum evenly; the all-transposition row is empty
        row = next(r for r in body["rows"] if r["type"] == "2,1:3")
        assert row == {"type": "2,1:3", "fiber_size": 0, "components": 0, "complete": True}

    def test_degree_two(self):
        body = count_components(ComponentQuery(2, 4, None, False, True, True), LIM)
        assert body["total_components"] == 1

    def test_single_type_matches_fiber_count(self):
        tv = TypeVector.single((2, 1), 4)
        body = count_components(ComponentQuery(3, 4, tv, True, True, False), LIM)
        assert body["rows"][0]["components"] == 1

    def test_relabeling_invariance(self):
        # counting after conjugating every word by a fixed element changes nothing
        from hurwitz.orbits import FiberSpec, count_orbits_in_fiber
        from hurwitz.words import conjugate_state
        spec = FiberSpec(3, TypeVector.single((2, 1), 4), Perm.identity(3),
                         "none", True)
        r = count_orbits_in_fiber(spec, LIM, want_partition=True)
        g = Perm.parse("(1,2,3)", 3)
        relabeled = {conjugate_state(w, g) for part in r.partition for w in part}
        assert relabeled == {w for part in r.partition for w in part}

    def test_query_validation(self):
        with pytest.raises(ValueError):
            ComponentQuery(3, 3, TypeVector.single((2, 1), 4))
        with pytest.raises(ValueError):
            ComponentQuery(1, 3)


class TestTheoremReport:
    def test_body_shape(self):
        body = theorem_report(4, (2, 1, 1), LIM, scan_from=2, scan_to=4)
        assert body["N_C_bound"] == 76
        assert body["falsification_found"] is False
        assert body["metrics"]["witness"] == ["(1,2)"]

    def test_rejects_bad_classes(self):
        with pytest.raises(ValueError):
            theorem_report(4, (4,), LIM)
        with pytest.raises(ValueError):
            theorem_report(4, (3, 1), LIM)
        with pytest.raises(ValueError, match="need 1 <= from <= to"):
            theorem_report(4, (2, 1, 1), LIM, 5, 3)

    def test_emit_csv_of_scan(self):
        body = theorem_report(4, (2, 1, 1), LIM, scan_from=2, scan_to=4)
        cfg = RunConfig(output_format="csv")
        out = emit(make_report("theorem1-report", {}, cfg, body), cfg)
        assert out.splitlines()[0] == "n,fiber_size,orbits,complete"
