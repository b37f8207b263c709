"""Adversarial fleet campaigns: detection quality as a measured property.

The paper's central claim is about *detection coverage*: which attack
classes the reference-states scheme catches, which it concedes, and at
what cost.  A campaign makes that claim measurable at fleet scale: a
configurable fraction of journeys carries a journey-resident attack
(one injector striking at one hop, assigned deterministically from the
``("campaign", index)`` substream — see
:func:`~repro.sim.fleet.plan_journey_attack`), the fleet runs as usual
(sharded or not; merged campaign runs are bit-identical to
single-process ones), and the outcomes aggregate into a
:class:`CampaignResult`:

* per-scenario **recall** (detected / injected), **precision** against
  the benign population, the campaign-wide **false-positive rate**, and
  mean **hops- / time-to-detection**;
* a detectability **matrix** bucketing outcomes by Figure-2 area and by
  expected :class:`~repro.attacks.model.Detectability` class;
* a :class:`~repro.attacks.detection.DetectionReport` built from the
  per-journey ground truth, which :func:`detection_report_from_trace`
  reconstructs from the JSONL trace alone — the trace carries both the
  ground truth (``attack`` events) and the verdicts (``complete``
  events), so post-hoc analysis never needs the live run.

Metric definitions (campaign population = campaign-attacked plus fully
benign journeys; any journey that met a *resident* malicious host —
including one that also carried a campaign attack — is excluded from
campaign metrics and reported separately, because its verdicts cannot
be attributed to the campaign scenario):

* ``recall``      — flagged fraction of journeys carrying an attack the
  paper expects to be caught;
* ``precision``   — attacked fraction of all flagged journeys;
* ``false_positive_rate`` — flagged fraction of benign journeys;
* per-scenario ``detection_rate`` — flagged fraction of that scenario's
  journeys (equals recall for expected-detectable scenarios and must be
  0.0 for conceded ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.attacks.detection import DetectionOutcome, DetectionReport
from repro.attacks.model import AttackArea, Detectability, areas_by_detectability
from repro.attacks.scenarios import catalogue_names, scenario_by_name
from repro.sim.fleet import FleetConfig, FleetResult, JourneyOutcome
from repro.sim.shard import run_fleet
from repro.sim.trace import attack_events

__all__ = [
    "DEFAULT_CAMPAIGN_SCENARIOS",
    "ScenarioStats",
    "CampaignResult",
    "campaign_config",
    "analyze_campaign",
    "run_campaign",
    "detection_report_from_trace",
]

#: Every scenario of the standard catalogue — the default draw set.
DEFAULT_CAMPAIGN_SCENARIOS: Tuple[str, ...] = catalogue_names()

#: Mechanism names recorded in detection outcomes (mirrors the
#: protection mechanisms without importing the protocol stack).
_PROTECTED_MECHANISM = "reference-state-protocol"
_UNPROTECTED_MECHANISM = "unprotected"


def campaign_config(
    num_agents: int = 1000,
    num_hosts: int = 25,
    hops_per_journey: int = 4,
    attack_fraction: float = 0.3,
    scenarios: Sequence[str] = DEFAULT_CAMPAIGN_SCENARIOS,
    seed: int = 0,
    **overrides: Any,
) -> FleetConfig:
    """A fleet configuration shaped for a campaign run.

    The host population is honest (``malicious_host_fraction=0``) so
    every attack in the run is campaign ground truth; override it to
    study mixed populations.
    """
    settings: Dict[str, Any] = dict(
        num_agents=num_agents,
        num_hosts=num_hosts,
        hops_per_journey=hops_per_journey,
        malicious_host_fraction=0.0,
        attack_fraction=attack_fraction,
        journey_scenarios=tuple(scenarios),
        seed=seed,
    )
    settings.update(overrides)
    return FleetConfig(**settings)


def _mechanism_name(config: FleetConfig) -> str:
    return _PROTECTED_MECHANISM if config.protected else _UNPROTECTED_MECHANISM


def _scenario_expectation(config: FleetConfig, scenario_name: str) -> bool:
    """Paper expectation for one campaign scenario under this config."""
    return bool(config.protected) and scenario_by_name(
        scenario_name
    ).expected_detected


def _mean(values: List[float]) -> Optional[float]:
    if not values:
        return None
    return sum(values) / len(values)


@dataclass
class ScenarioStats:
    """Campaign detection metrics for one attack scenario.

    ``benign_flagged`` / ``benign_journeys`` describe the shared benign
    population the per-scenario precision is computed against.
    """

    scenario: str
    area: AttackArea
    detectability: Detectability
    expected_detected: bool
    injected: int
    detected: int
    benign_flagged: int
    benign_journeys: int
    mean_hops_to_detection: Optional[float]
    mean_time_to_detection: Optional[float]

    @property
    def detection_rate(self) -> Optional[float]:
        """Flagged fraction of this scenario's journeys."""
        if self.injected == 0:
            return None
        return self.detected / self.injected

    @property
    def recall(self) -> Optional[float]:
        """Alias of :attr:`detection_rate` (the campaign's gated metric)."""
        return self.detection_rate

    @property
    def precision(self) -> Optional[float]:
        """Attacked fraction of alarms among this scenario plus benign."""
        flagged = self.detected + self.benign_flagged
        if flagged == 0:
            return None
        return self.detected / flagged

    @property
    def false_positive_rate(self) -> float:
        """Flagged fraction of the shared benign population."""
        if self.benign_journeys == 0:
            return 0.0
        return self.benign_flagged / self.benign_journeys

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (bench reports, CI artifacts)."""
        return {
            "scenario": self.scenario,
            "area": self.area.value,
            "area_name": self.area.description,
            "detectability": self.detectability.value,
            "expected_detected": self.expected_detected,
            "injected": self.injected,
            "detected": self.detected,
            "detection_rate": self.detection_rate,
            "recall": self.recall,
            "precision": self.precision,
            "false_positive_rate": self.false_positive_rate,
            "mean_hops_to_detection": self.mean_hops_to_detection,
            "mean_time_to_detection": self.mean_time_to_detection,
        }


@dataclass
class CampaignResult:
    """Detection-quality view over a finished (possibly sharded) fleet run."""

    fleet: FleetResult

    # -- populations -------------------------------------------------------------

    @property
    def config(self) -> FleetConfig:
        return self.fleet.config

    @property
    def campaign_journeys(self) -> List[JourneyOutcome]:
        """Journeys whose *only* attack is the campaign's.

        A campaign journey that also crossed a resident malicious host
        cannot have its verdicts attributed to the campaign scenario
        (the resident attack may be the one that alarmed), so mixed
        journeys fall under :attr:`host_attacked_journeys` instead.
        """
        return [
            o for o in self.fleet.campaign_journeys
            if not o.malicious_visited
        ]

    @property
    def benign_journeys(self) -> List[JourneyOutcome]:
        """Journeys with neither campaign nor resident-host attacks."""
        return self.fleet.honest_journeys

    @property
    def host_attacked_journeys(self) -> List[JourneyOutcome]:
        """Journeys that met resident malicious hosts at all.

        Outside campaign ground truth (the campaign substream did not
        place those attacks, and for mixed journeys it cannot tell the
        verdicts apart), so they are excluded from campaign metrics and
        surfaced as a count instead.
        """
        return [o for o in self.fleet.outcomes if o.malicious_visited]

    def _expected(self, outcome: JourneyOutcome) -> bool:
        assert outcome.attack_scenario is not None
        return _scenario_expectation(self.config, outcome.attack_scenario)

    # -- campaign-wide metrics ---------------------------------------------------

    @property
    def true_positives(self) -> int:
        """Expected-detectable campaign attacks that were flagged."""
        return sum(
            1 for o in self.campaign_journeys
            if self._expected(o) and o.detected
        )

    @property
    def false_negatives(self) -> int:
        """Expected-detectable campaign attacks that were missed."""
        return sum(
            1 for o in self.campaign_journeys
            if self._expected(o) and not o.detected
        )

    @property
    def false_positives(self) -> int:
        """Benign journeys that were flagged anyway."""
        return sum(1 for o in self.benign_journeys if o.detected)

    @property
    def undetectable_flagged(self) -> int:
        """Conceded-undetectable campaign attacks that still alarmed."""
        return sum(
            1 for o in self.campaign_journeys
            if not self._expected(o) and o.detected
        )

    @property
    def recall(self) -> float:
        """Flagged fraction of expected-detectable campaign attacks."""
        expected = self.true_positives + self.false_negatives
        if expected == 0:
            return 1.0
        return self.true_positives / expected

    @property
    def precision(self) -> float:
        """Attacked fraction of all alarms in the campaign population."""
        flagged_attacked = sum(1 for o in self.campaign_journeys if o.detected)
        flagged = flagged_attacked + self.false_positives
        if flagged == 0:
            return 1.0
        return flagged_attacked / flagged

    @property
    def false_positive_rate(self) -> float:
        """Flagged fraction of the benign population."""
        benign = self.benign_journeys
        if not benign:
            return 0.0
        return self.false_positives / len(benign)

    # -- breakdowns ----------------------------------------------------------------

    def per_scenario(self) -> Dict[str, ScenarioStats]:
        """Detection metrics per campaign scenario, keyed by name."""
        benign = self.benign_journeys
        benign_flagged = self.false_positives
        grouped: Dict[str, List[JourneyOutcome]] = {}
        for outcome in self.campaign_journeys:
            grouped.setdefault(outcome.attack_scenario, []).append(outcome)

        stats: Dict[str, ScenarioStats] = {}
        for name in sorted(grouped):
            outcomes = grouped[name]
            descriptor = scenario_by_name(name).describe("campaign")
            hops = [
                float(o.hops_to_detection) for o in outcomes
                if o.detected and o.hops_to_detection is not None
            ]
            times = [
                o.time_to_detection for o in outcomes
                if o.detected and o.time_to_detection is not None
            ]
            stats[name] = ScenarioStats(
                scenario=name,
                area=descriptor.area,
                detectability=descriptor.area.detectability,
                expected_detected=_scenario_expectation(self.config, name),
                injected=len(outcomes),
                detected=sum(1 for o in outcomes if o.detected),
                benign_flagged=benign_flagged,
                benign_journeys=len(benign),
                mean_hops_to_detection=_mean(hops),
                mean_time_to_detection=_mean(times),
            )
        return stats

    def detection_report(self) -> DetectionReport:
        """Per-journey ground truth vs. verdicts as a DetectionReport.

        Campaign journeys carry a descriptor of their attack; benign
        journeys become honest-run outcomes.  Host-attacked journeys
        are outside campaign ground truth and are omitted.
        """
        mechanism = _mechanism_name(self.config)
        report = DetectionReport()
        for outcome in self.fleet.outcomes:
            if outcome.malicious_visited:
                continue
            if outcome.attack_scenario is not None:
                target = outcome.itinerary[outcome.attack_hop]
                descriptor = scenario_by_name(
                    outcome.attack_scenario
                ).describe(target)
                report.add(DetectionOutcome(
                    mechanism=mechanism,
                    attack=descriptor,
                    detected=outcome.detected,
                    blamed_hosts=outcome.blamed_hosts,
                    expected_detection=self._expected(outcome),
                ))
            elif not outcome.attacked:
                report.add(DetectionOutcome(
                    mechanism=mechanism,
                    attack=None,
                    detected=outcome.detected,
                    blamed_hosts=outcome.blamed_hosts,
                    expected_detection=False,
                ))
        return report

    def detectability_matrix(self) -> Dict[str, Dict[str, Any]]:
        """Detection rates bucketed by expected detectability class.

        The campaign analogue of the paper's Section 4 discussion: one
        row per :class:`~repro.attacks.model.Detectability` class that
        occurred, with the Figure-2 areas it covers and the observed
        detection rate.
        """
        report = self.detection_report()
        by_class = report.by_detectability()
        by_area = report.by_area()
        class_areas = areas_by_detectability()
        matrix: Dict[str, Dict[str, Any]] = {}
        for detectability in Detectability:
            counts = by_class.get(detectability)
            if counts is None:
                continue
            areas = sorted(
                area.value for area in by_area
                if area in class_areas[detectability]
            )
            matrix[detectability.value] = {
                "areas": areas,
                "mounted": counts["mounted"],
                "detected": counts["detected"],
                "expected_detections": counts["expected"],
                "detection_rate": (
                    counts["detected"] / counts["mounted"]
                    if counts["mounted"] else None
                ),
            }
        return matrix

    # -- reporting ---------------------------------------------------------------

    def deterministic_signature(self) -> str:
        """Signature of the underlying fleet run (campaign fields included)."""
        return self.fleet.deterministic_signature()

    def summary(self) -> Dict[str, Any]:
        """Compact JSON-ready campaign report (bench section, CI gate)."""
        scenario_stats = self.per_scenario()
        per_scenario = {
            name: stats.to_dict() for name, stats in scenario_stats.items()
        }
        always = [
            stats for stats in scenario_stats.values()
            if stats.expected_detected and stats.injected > 0
        ]
        always_recall = min(
            (s.recall for s in always if s.recall is not None),
            default=1.0,
        )
        return {
            "journeys": self.fleet.journeys,
            "campaign_attacked": len(self.campaign_journeys),
            "benign_journeys": len(self.benign_journeys),
            "host_attacked_excluded": len(self.host_attacked_journeys),
            "attack_fraction": self.config.attack_fraction,
            "precision": self.precision,
            "recall": self.recall,
            "false_positive_rate": self.false_positive_rate,
            "true_positives": self.true_positives,
            "false_negatives": self.false_negatives,
            "false_positives": self.false_positives,
            "undetectable_flagged": self.undetectable_flagged,
            "always_detectable_recall": always_recall,
            "per_scenario": per_scenario,
            "detectability_matrix": self.detectability_matrix(),
        }


def analyze_campaign(result: FleetResult) -> CampaignResult:
    """Wrap a finished fleet run in the campaign detection-quality view."""
    return CampaignResult(fleet=result)


def run_campaign(
    config: FleetConfig,
    workers: int = 1,
    start_method: Optional[str] = None,
    pool: Optional[Any] = None,
    unit_size: Optional[int] = None,
) -> CampaignResult:
    """Run an adversarial fleet and return its campaign analysis.

    A thin layer over :func:`repro.sim.shard.run_fleet`: campaign
    assignment rides in the configuration, so the sharded execution
    path needs no campaign-specific plumbing and the merged run is
    bit-identical to the single-process one.  ``pool`` optionally names
    a persistent :class:`~repro.sim.shard.FleetWorkerPool` to reuse;
    ``unit_size`` sets the work-stealing unit granularity.
    """
    kwargs: Dict[str, Any] = {}
    if start_method is not None:
        kwargs["start_method"] = start_method
    if pool is not None:
        kwargs["pool"] = pool
    result = run_fleet(
        config, workers=workers, unit_size=unit_size, **kwargs
    )
    return analyze_campaign(result)


def detection_report_from_trace(
    events: Iterable[Dict[str, Any]],
) -> DetectionReport:
    """Rebuild the campaign :class:`DetectionReport` from a JSONL trace.

    Uses only what the trace records: ``attack`` events carry the
    ground truth (scenario, strike hop, target host, expectation),
    ``complete`` events carry the verdicts.  The result equals
    :meth:`CampaignResult.detection_report` of the live run — the
    round-trip the trace tests pin down.  Journeys attacked by resident
    malicious hosts (``malicious_visited`` on their ``complete`` event)
    are omitted, mirroring the live analysis.
    """
    ordered = list(events)
    protected = True
    for event in ordered:
        if event.get("event") == "fleet":
            protected = bool(
                event.get("config", {}).get("protected", True)
            )
            break
    mechanism = _PROTECTED_MECHANISM if protected else _UNPROTECTED_MECHANISM
    attacks = attack_events(ordered)
    report = DetectionReport()
    for event in ordered:
        if event.get("event") != "complete":
            continue
        if event.get("malicious_visited"):
            # Resident-host attacks (mixed ones included) are outside
            # campaign ground truth — mirror the live analysis.
            continue
        journey = event.get("journey")
        detected = bool(event.get("detected"))
        blamed = tuple(event.get("blamed", ()))
        attack = attacks.get(journey)
        if attack is not None:
            descriptor = scenario_by_name(attack["scenario"]).describe(
                attack["target"]
            )
            report.add(DetectionOutcome(
                mechanism=mechanism,
                attack=descriptor,
                detected=detected,
                blamed_hosts=blamed,
                expected_detection=bool(attack.get("expected")),
            ))
        else:
            report.add(DetectionOutcome(
                mechanism=mechanism,
                attack=None,
                detected=detected,
                blamed_hosts=blamed,
                expected_detection=False,
            ))
    return report
