"""Each distinct Gamma query and hull distance is computed once per trial.

The object engine runs every process literally, and the paper's algorithms
have all non-faulty processes apply one deterministic rule to one agreed
multiset — so without the kernel's answer memo (and the validity check's row
dedupe) a trial re-solves the same LP once per process.  These tests pin the
counts, and that neither shortcut moves a row: the memo-less runs below
monkeypatch the shared kernel's store step to a no-op, which makes every
query a fresh solve without any switch in the product.
"""

from __future__ import annotations

import pytest

import repro.core.validity as validity
from repro.engine import STRATEGY_NAMES, Campaign, CampaignSession, strip_timing
from repro.geometry.kernel import default_kernel


def _solves(events) -> int:
    """Gamma queries computed (an LP at d >= 3, the closed form below) over ``events``' span."""
    return events.lp_solves + events.closed_form_answers


def _rows(specs, **options) -> list[str]:
    return strip_timing(result.to_row() for result in CampaignSession(specs, **options).rows())


@pytest.fixture
def fresh_kernel():
    """No answer left over from another test's identical spec."""
    default_kernel.clear_cache()
    yield default_kernel
    default_kernel.clear_cache()


@pytest.fixture
def without_memo(monkeypatch):
    def disable() -> None:
        default_kernel.clear_cache()
        monkeypatch.setattr(default_kernel, "_memo_store", lambda key, answer: None)

    return disable


def test_adversarial_exact_trial_computes_one_gamma_point_and_one_hull_distance(
    fresh_kernel, monkeypatch, kernel_events
):
    campaign = Campaign.from_grid(
        "exact-at-the-bound",
        protocols=("exact",),
        adversaries=STRATEGY_NAMES,  # the four independent strategies
        dimensions=(1, 2, 3),
        fault_bounds=(1,),
        repeats=1,
        base_seed=1812,
    )
    assert len(campaign) == 12
    hull_lps = []
    distance_to_hull = validity.distance_to_hull

    def counting(*args, **kwargs):
        hull_lps.append(1)
        return distance_to_hull(*args, **kwargs)

    monkeypatch.setattr(validity, "distance_to_hull", counting)
    events = kernel_events()
    results = list(CampaignSession(campaign.specs, engine="object").rows())
    assert all(result.ok and result.agreement and result.validity for result in results)
    assert _solves(events) == 12
    assert events.lp_solves == 4  # only d = 3 takes the LP
    assert len(hull_lps) == 12


def test_approx_trial_computes_a_quarter_of_the_memoless_queries(
    fresh_kernel, without_memo, kernel_events
):
    campaign = Campaign.from_grid(
        "approx-d2",
        protocols=("approx",),
        adversaries=("equivocate",),
        schedulers=("random",),
        dimensions=(2,),
        fault_bounds=(1,),
        repeats=1,
        base_seed=1813,
    )
    events = kernel_events()
    rows = _rows(campaign.specs, engine="object")
    with_memo, hits = _solves(events), events.memo_hits

    without_memo()
    events = kernel_events()
    assert _rows(campaign.specs, engine="object") == rows
    memoless = _solves(events)
    assert hits > 0 and fresh_kernel.memo_size == 0
    assert 0 < 4 * with_memo <= memoless


@pytest.mark.parametrize("engine", ["auto", "object"])
def test_rows_are_byte_identical_with_and_without_the_memo(
    engine, fresh_kernel, without_memo, kernel_events
):
    sync = Campaign.from_grid(
        "mixed-sync",
        protocols=("exact", "restricted_sync"),
        adversaries=("none", "crash", "equivocate"),
        dimensions=(1, 2),
        fault_bounds=(1,),
        repeats=2,
        base_seed=1814,
        max_rounds_override=3,
    )
    approx = Campaign.from_grid(
        "mixed-approx",
        protocols=("approx",),
        adversaries=("crash", "outside_hull"),
        schedulers=("random",),
        dimensions=(1, 2),
        fault_bounds=(1,),
        repeats=1,
        base_seed=1815,
    )
    restricted_async = Campaign.from_grid(
        "mixed-async",
        protocols=("restricted_async",),
        adversaries=("none", "equivocate"),
        schedulers=("round_robin", "random"),
        dimensions=(2,),
        fault_bounds=(1,),
        process_counts=(7,),
        epsilons=(1.0,),
        repeats=2,
        base_seed=1816,
        max_rounds_override=2,
    )
    specs = Campaign.from_specs(
        "mixed", sync.specs + approx.specs + restricted_async.specs
    ).specs
    events = kernel_events()
    with_memo = _rows(specs, engine=engine)
    assert events.memo_hits > 0  # the memo was in play

    without_memo()
    events = kernel_events()
    assert _rows(specs, engine=engine) == with_memo
    assert events.memo_hits == 0 and fresh_kernel.memo_size == 0
