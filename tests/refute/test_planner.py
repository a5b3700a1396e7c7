"""The campaign planner: clean runs, planted detection, determinism."""

import json

import pytest

from repro import api
from repro.refute import PERTURBATIONS, run_campaign
from repro.refute.planner import CAMPAIGNS, CampaignSpec
from repro.report.refute import refute_json

#: A deliberately small campaign so every planner path runs in test
#: time; the committed REFUTATIONS.json exercises the real ones.
TINY = CampaignSpec(
    name="test-tiny", workloads=("rte-educational",),
    machines=("vax780",), budgets=(450,), anchors=(200, 400, 600),
    variants=((),), refine=0, fuzz_cases=1, batch_cases=1,
    fuzz_budget=120, seed=7)


class TestCleanCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(TINY, store=None)

    def test_zero_refutations_on_the_unperturbed_simulator(self, result):
        assert result.ok
        assert result.refutations == []

    def test_every_assumption_is_probed(self, result):
        probed = {probe["assumption"] for probe in result.probes}
        assert probed == {
            "conservation-laws", "capability-invariants",
            "analytical-cpi-bound", "ubench-exactness",
            "fastpath-reference-identity", "multicapture-identity"}

    def test_summary_rolls_up_per_assumption(self, result):
        rows = result.assumptions_summary()
        assert len(rows) == 6
        assert all(row["violations"] == 0 for row in rows)
        analytical = next(r for r in rows
                          if r["name"] == "analytical-cpi-bound")
        assert 0.0 < analytical["worst_margin"] <= 1.0


class TestPlantedDetection:
    """Every registered plant must be caught by the assumptions that
    promise to see it, and shrunk to a <=10-instruction reproducer."""

    @pytest.mark.parametrize("plant", sorted(PERTURBATIONS))
    def test_plant_is_detected_and_shrunk(self, plant):
        result = run_campaign(TINY, store=None, plant=plant)
        flagged = {item["assumption"] for item in result.refutations}
        assert set(PERTURBATIONS[plant].expect) <= flagged, \
            f"{plant} missed by {PERTURBATIONS[plant].expect}"
        budgets = [item["reproducer"]["instructions"]
                   for item in result.refutations
                   if item["reproducer"] is not None
                   and "instructions" in item["reproducer"]]
        assert budgets and min(budgets) <= 10

    def test_unknown_plant_is_rejected_before_running(self):
        from repro.refute.planner import RefuteError

        with pytest.raises(RefuteError, match="unknown perturbation"):
            run_campaign(TINY, store=None, plant="no-such-plant")


class TestJobsDeterminism:
    """The whole document — probes, margins, shrunk reproducers — is
    byte-identical at any ``--jobs`` (the shrinker-determinism
    satellite: ordering comes from submission order, never workers)."""

    def _doc(self, jobs, plant=None):
        result = run_campaign(TINY, store=None, jobs=jobs, plant=plant)
        return json.dumps(result.to_json(), sort_keys=True)

    def test_clean_campaign_is_jobs_invariant(self):
        assert self._doc(jobs=1) == self._doc(jobs=2)

    def test_planted_campaign_is_jobs_invariant(self):
        plant = "ib-take-extra-cycle"
        assert self._doc(jobs=1, plant=plant) \
            == self._doc(jobs=2, plant=plant)


class TestFuzzJobsDeterminism:
    """validate's fuzzers share the guarantee at the API level."""

    def test_reference_fuzz_results_match_across_jobs(self):
        from repro.validate import fuzz

        serial = fuzz(3, seed=11, instructions=120, jobs=1)
        parallel = fuzz(3, seed=11, instructions=120, jobs=2)
        assert [r["label"] for r in serial] \
            == [r["label"] for r in parallel]
        assert [r["ok"] for r in serial] == [r["ok"] for r in parallel]

    def test_planted_fuzz_divergences_match_across_jobs(self):
        from repro.validate import fuzz

        def reproducers(jobs):
            results = fuzz(2, seed=11, instructions=120, jobs=jobs,
                           plant="ib-take-extra-cycle")
            return [(r["ok"],
                     r["reproducer"].case.instructions
                     if r["reproducer"] is not None else None,
                     r["reproducer"].divergence.field
                     if r["reproducer"] is not None else None)
                    for r in results]

        serial = reproducers(1)
        assert any(not ok for ok, _, _ in serial), \
            "plant did not fire; the determinism check would be vacuous"
        assert serial == reproducers(2)


class TestApiFacade:
    def test_unknown_campaign_is_an_api_error(self):
        with pytest.raises(api.ApiError, match="unknown campaign"):
            api.refute(campaign="no-such-campaign")

    def test_unknown_plant_is_an_api_error(self):
        with pytest.raises(api.ApiError, match="unknown perturbation"):
            api.refute(smoke=True, plant="no-such-plant")

    def test_registered_campaigns(self):
        assert set(CAMPAIGNS) == {"standard", "smoke"}

    def test_planted_smoke_run_reports_ok_when_caught(self, tmp_path):
        result = api.refute(smoke=True, plant="batch-capture-extra-count",
                            store=str(tmp_path / "store"))
        assert result.ok
        assert result.plant == "batch-capture-extra-count"
        assert result.refutations > 0
        assert result.planted_total is None  # self-check skipped
        doc = refute_json(result.campaign_result, result.planted)
        assert doc["ok"]
        assert doc["plant"] == "batch-capture-extra-count"
