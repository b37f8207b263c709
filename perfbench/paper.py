"""``paper_tables``: the paper's 2×2 grid as interleaved plain/protected pairs.

Each op runs one (plain, protected) pair of generic-agent journeys of one
grid cell (1 or 100 inputs × 1 or 10000 cycles) on the paper's
trusted → untrusted → trusted path
(:func:`repro.workloads.generators.build_generic_scenario`), the
protected one under :class:`~repro.core.protocol.ReferenceStateProtocol`.
The two halves of a pair alternate which runs first, so slow drift of
the machine cancels out of the pair's ratio.

A round is ``SMALL_1IN`` pairs of the 1-input/1-cycle cell and
``SMALL_100IN`` pairs of the 100-input/1-cycle cell, then one pair of a
10000-cycle cell; rounds alternate the two 10000-cycle cells.  The
10000-cycle cells spend nearly all their time executing and
re-executing the agent, and bypass codec and crypto almost entirely.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Tuple

from perfbench.common import (
    OpRecord,
    cpu_per_unit,
    median,
    op_digest,
    percentile,
    samples_beyond,
)

#: (metric suffix, inputs, cycles) in the paper's row order.
CELLS: Tuple[Tuple[str, int, int], ...] = (
    ("1in_1cyc", 1, 1),
    ("100in_1cyc", 100, 1),
    ("1in_10kcyc", 1, 10000),
    ("100in_10kcyc", 100, 10000),
)
#: The paper's overall overhead factors (Table 2), for the printout.
BIG_CELLS = tuple(suffix for suffix, _inputs, cycles in CELLS
                  if cycles == 10000)
PAPER_FACTORS = {"1in_1cyc": 1.9, "100in_1cyc": 2.2, "1in_10kcyc": 1.3,
                 "100in_10kcyc": 1.4}
SMALL_1IN = 40
SMALL_100IN = 10
BIG_CYCLES = 10000
#: Set-up runs each 1-cycle cell's pair this often (about 0.3 s).
WARMUP_PAIRS = 5


class CategoryClock:
    """The ``metrics=`` collector the hosts charge the paper's categories to."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}

    @contextmanager
    def measure(self, category: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(category, time.perf_counter() - started)

    def add(self, category: str, seconds: float) -> None:
        self.totals[category] = self.totals.get(category, 0.0) + seconds


def run_journey(inputs: int, cycles: int, protected: bool) -> Dict[str, Any]:
    """One timed journey of a freshly built scenario."""
    from repro.core.protocol import ReferenceStateProtocol
    from repro.workloads.generators import build_generic_scenario

    clock = CategoryClock()
    scenario, agent = build_generic_scenario(
        cycles=cycles, input_elements=inputs, protected_agent=protected,
        metrics=clock,
    )
    protection = None
    if protected:
        protection = ReferenceStateProtocol(
            code_registry=scenario.system.code_registry,
            trusted_hosts=scenario.trusted_host_names,
        )
    wall0, cpu0 = time.perf_counter(), time.process_time()
    journey = scenario.system.launch(
        agent, scenario.itinerary, protection=protection
    )
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    sign_verify = clock.totals.get("sign_verify", 0.0)
    cycle = clock.totals.get("cycle", 0.0)
    return {
        "journey": journey,
        "wall_s": wall,
        "cpu_s": cpu,
        "sign_verify_ms": 1e3 * sign_verify,
        "cycle_ms": 1e3 * cycle,
        "remainder_ms": 1e3 * max(0.0, wall - sign_verify - cycle),
    }


class PaperWorkload:
    name = "paper_tables"

    def __init__(self, seed: int) -> None:
        # The grid has no randomness; the seed only picks which half of
        # each pair runs first in op 0.
        self.seed = seed
        self.round = SMALL_1IN + SMALL_100IN + 1
        #: Whole pairs of rounds, so both 10000-cycle cells run equally.
        self.step = self.min_ops = 2 * self.round
        self.problems: List[str] = []
        self.op_digests: List[str] = []

    def setup(self) -> None:
        """Warm-up pairs of the 1-cycle cells.

        They build the hosts' keys and, once a key has been used often
        enough, its fixed-base table, through the program's own memo.
        """
        for _ in range(WARMUP_PAIRS):
            for _suffix, inputs, cycles in CELLS[:2]:
                for protected in (False, True):
                    run_journey(inputs, cycles, protected)

    def cell_of(self, index: int) -> Tuple[str, int, int]:
        """The grid cell op ``index`` runs: (suffix, inputs, cycles)."""
        position = index % self.round
        if position == self.round - 1:
            suffix, inputs, _cycles = CELLS[2 + (index // self.round) % 2]
            return suffix, inputs, BIG_CYCLES
        if position < 2 * SMALL_100IN and position % 2:
            return CELLS[1]
        return CELLS[0]

    def reset(self) -> None:
        self.op_digests = []

    def op(self, index: int) -> OpRecord:
        suffix, inputs, cycles = self.cell_of(index)
        protected_first = (index + self.seed) % 2 == 1
        order = (True, False) if protected_first else (False, True)
        runs = {protected: run_journey(inputs, cycles, protected)
                for protected in order}
        plain, protected = runs[False], runs[True]
        return OpRecord(
            index=index,
            wall_s=plain["wall_s"] + protected["wall_s"],
            cpu_s=plain["cpu_s"] + protected["cpu_s"],
            units=2,
            ok=True,
            extra={
                "journeys": (plain.pop("journey"), protected.pop("journey")),
                "cell": suffix,
                "ratio": protected["wall_s"] / plain["wall_s"],
                "protected_ms": 1e3 * protected["wall_s"],
                "attempted": 2,
                "categories": {
                    mode: {key: run[key] for key in (
                        "sign_verify_ms", "cycle_ms", "remainder_ms",
                    )}
                    for mode, run in (("plain", plain),
                                      ("protected", protected))
                },
            },
        )

    def check(self, record: OpRecord) -> None:
        """Judge the op's pair and add its final state to the digest."""
        from repro.crypto import canonical_encode
        from repro.crypto.hashing import hash_bytes

        plain, protected = record.extra.pop("journeys")
        problems = []
        attack = protected.detected_attack()
        if attack:
            problems.append("protected journey reported attack=%s" % attack)
        plain_data = canonical_encode(plain.final_state.data)
        protected_data = canonical_encode(protected.final_state.data)
        if plain_data != protected_data:
            problems.append("final data state differs from the plain run's")
        record.ok = not problems
        record.extra["failed"] = len(problems)
        self.problems.extend(
            "op %d (%s): %s" % (record.index, record.extra["cell"], p)
            for p in problems
        )
        self.op_digests.append(hash_bytes(protected_data).hex())

    def digest(self) -> str:
        return op_digest(self.op_digests[:self.min_ops])

    # -- metrics ------------------------------------------------------------

    def factors(self, records: List[OpRecord]) -> Dict[str, float]:
        return {
            suffix: median([r.extra["ratio"] for r in records
                            if r.extra["cell"] == suffix])
            for suffix, _inputs, _cycles in CELLS
        }

    def figures(self, records: List[OpRecord]) -> Dict[str, float]:
        # A 1-cycle journey takes 3-5 ms and runs wholly in the host's
        # fast or slow state, so its wall moved by up to a quarter
        # between runs; a 10000-cycle journey (about 1.5 s) spans many
        # switches of state, so op_ms_p50 is the median of those.
        big = [r.extra["protected_ms"] for r in records
               if r.extra["cell"] in BIG_CELLS]
        small = [r.extra["protected_ms"] for r in records
                 if r.extra["cell"] == CELLS[0][0]]
        journeys = sum(r.units for r in records)
        # CPU per journey of the 1-cycle cells: the codec and crypto
        # work a perf change moves.  The 10000-cycle cells are tight
        # agent loops that a contended host slows about half as much as
        # it slows the reference kernel, so dividing them by it does
        # not cancel the host's drift; they feed op_ms_p50 instead.
        cpu_ms, cpu_ref = cpu_per_unit(
            records, lambda r: r.extra["cell"] not in BIG_CELLS
        )
        return {
            "throughput_per_s": journeys / sum(r.wall_s for r in records),
            "cpu_ms_per_op": cpu_ms,
            "cpu_ref_per_op": cpu_ref,
            "op_ms_p50": median(big),
            "op_ms_p99": percentile(small, 0.99),
        }

    def lines(self, records: List[OpRecord]) -> List[str]:
        big = sum(1 for r in records if r.extra["cell"] in BIG_CELLS)
        small = sum(1 for r in records if r.extra["cell"] == CELLS[0][0])
        out = ["paper: %d pairs; op_ms_p50 is the median wall of the %d "
               "protected 10000-cycle journeys, op_ms_p99 the p99 of the "
               "protected %s journeys (%d samples, %d beyond it)" % (
                   len(records), big, CELLS[0][0], small,
                   samples_beyond(small, 0.99),
               )]
        for suffix, factor in self.factors(records).items():
            pairs = sum(1 for r in records if r.extra["cell"] == suffix)
            out.append("paper: overhead_x.%-13s %.3f over %d pairs "
                       "(paper: %.1f)" % (suffix, factor, pairs,
                                          PAPER_FACTORS[suffix]))
        return out

    def layer_figures(self, untraced: List[OpRecord], traced: List[OpRecord],
                      tracer: Any) -> Dict[str, float]:
        values = {
            "paper.overhead_x.%s" % suffix: factor
            for suffix, factor in self.factors(untraced).items()
        }
        for suffix, _inputs, _cycles in CELLS:
            cell = [r for r in untraced if r.extra["cell"] == suffix]
            for mode in ("plain", "protected"):
                for category in ("sign_verify", "cycle", "remainder"):
                    key = category + "_ms"
                    values["paper.%s.%s.%s" % (key, mode, suffix)] = median(
                        [r.extra["categories"][mode][key] for r in cell]
                    )
        return values
