"""``repro fuzz``: the soundness campaign, as a campaign mode.

A fuzz campaign is a one-round precision campaign
(:mod:`repro.fuzz.campaign`) with mutation and per-operator telemetry
off: ``budget`` freshly generated programs, each checked by the
differential oracle for containment and accepted crashes.  Program ``i``
comes from an RNG stream derived from ``(campaign_seed, i)`` only, so
results are bit-identical whatever the worker count or scheduling.  With
``workers=1`` everything runs inline, which keeps monkeypatched oracles
(used by tests to inject transfer-function bugs) effective and makes
single-process debugging trivial.

Violations are shrunk in the parent with the delta-debugging minimizer,
using the same input seeds that exposed them, and recorded into the
corpus alongside the original program.  The driver reports throughput
(programs/sec) — the fuzzing analogue of the paper's "fast" requirement:
a slow oracle caps how much of the program space a campaign can cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from .campaign import CampaignSpec, _run_rounds, program_seed
from .corpus import Corpus
from .resilience import RetryPolicy

__all__ = [
    "CampaignConfig",
    "CampaignStats",
    "CampaignResult",
    "run_campaign",
    "program_seed",
]


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign's outcome."""

    budget: int = 1000
    seed: int = 0
    workers: int = 1
    profile: str = "mixed"
    max_insns: int = 32
    ctx_size: int = 64
    inputs_per_program: int = 8
    shrink: bool = True

    def __post_init__(self) -> None:
        # The spec validates: KeyError for an unknown profile,
        # ValueError for a size out of range.
        _spec(self)


def _spec(config: CampaignConfig) -> CampaignSpec:
    """The one-round, mutation-off campaign ``config`` describes."""
    return CampaignSpec(
        budget=config.budget,
        rounds=1,
        seed=config.seed,
        workers=config.workers,
        profile=config.profile,
        max_insns=config.max_insns,
        ctx_size=config.ctx_size,
        inputs_per_program=config.inputs_per_program,
        mutate_fraction=0.0,
        seeds_per_round=0,
        seed_shrink_per_round=0,
        shrink=config.shrink,
    )


@dataclass
class CampaignStats:
    """Aggregate campaign counters."""

    budget: int = 0
    executed: int = 0
    accepted: int = 0
    rejected: int = 0
    rejected_clean: int = 0      # rejected but ran fine (imprecision signal)
    violations: int = 0
    containment_checks: int = 0
    elapsed_seconds: float = 0.0
    # Crash-recovery counters (multi-worker path only): lease retries
    # spent and batches lost to quarantine.
    retries: int = 0
    quarantined: int = 0

    @property
    def programs_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.executed / self.elapsed_seconds

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.executed if self.executed else 0.0

    def summary(self) -> str:
        lines = [
            f"programs  : {self.executed}/{self.budget}",
            f"accepted  : {self.accepted} "
            f"({100 * self.acceptance_rate:.1f}%)",
            f"rejected  : {self.rejected} "
            f"(clean replay: {self.rejected_clean})",
            f"checks    : {self.containment_checks} register containments",
            f"violations: {self.violations}",
        ]
        if self.retries or self.quarantined:
            # Only under chaos/real faults — the fault-free summary is
            # byte-stable for goldens.
            lines.append(
                f"resilience: {self.retries} batch retries, "
                f"{self.quarantined} quarantined"
            )
        lines.append(
            f"throughput: {self.programs_per_second:.1f} programs/sec "
            f"({self.elapsed_seconds:.2f}s)"
        )
        return "\n".join(lines)


@dataclass
class CampaignResult:
    """Stats plus every violation found (with shrunk witnesses)."""

    stats: CampaignStats
    corpus: Corpus = field(default_factory=Corpus)

    @property
    def ok(self) -> bool:
        return self.stats.violations == 0


def run_campaign(
    config: CampaignConfig,
    corpus: Optional[Corpus] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> CampaignResult:
    """Run one campaign to completion and return aggregated results.

    Multi-worker runs recover from worker crashes and hangs via leased
    batches with bounded retry (:mod:`repro.fuzz.resilience`); a batch
    that keeps failing is quarantined (counted on the stats) rather than
    hanging the campaign.
    """
    result = _run_rounds(
        _spec(config), corpus, state_dir=None, stop_after_rounds=None,
        retry_policy=retry_policy, telemetry=False,
    )
    stats = CampaignStats(**{
        f.name: getattr(result.stats, f.name) for f in fields(CampaignStats)
    })
    return CampaignResult(stats, result.corpus)
