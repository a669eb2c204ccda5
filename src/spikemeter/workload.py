"""Reductions of a workload trace into the per-inference workload metrics:
synaptic operations, membrane updates, activation sparsity, and derived
memory accesses (three loads and one store per MAC, two loads and one store
per AC).

They read a :class:`TraceCounts`, the counts of one inference as Python
ints.  It is the one type that holds them: the simulator and the dense
oracle each return one as their ``WorkloadTrace``'s ``counts``, and
``files.load_trace`` reads one from a trace file without numpy.  The
reductions judge nothing: when a metric calls for action is the catalog's
alert rules to say.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Derived memory traffic per arithmetic op: a MAC loads two operands and an
# accumulator and stores the result; an AC skips the multiplicand load.
READS_PER_MAC = 3
READS_PER_AC = 2
WRITES_PER_MAC = 1
WRITES_PER_AC = 1


@dataclass(frozen=True)
class TraceCounts:
    """What the metrics and the pricing read off one inference's trace.

    The four tallies and ``crossings`` hold one Python int per timestep;
    ``crossings`` counts the events forwarded across a layer boundary, the
    nonzero entries of every layer but the last.  ``non_input_spikes``
    counts the nonzero entries of every layer but the input.
    """

    layer_sizes: tuple[int, ...]
    timesteps: int
    timestep_duration: float
    acs: list[int]
    macs: list[int]
    leak_macs: list[int]
    membrane_updates: list[int]
    crossings: list[int]
    non_input_spikes: int
    model_name: str = ""
    model_version: str = ""
    static_metrics: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.timesteps * self.timestep_duration

    @property
    def non_input_neurons(self) -> int:
        return sum(self.layer_sizes[1:])


@dataclass(frozen=True)
class OpCounts:
    """MAC/AC and membrane-update tallies for one or more inferences.

    ``leak_macs`` is the subset of ``macs`` spent on leak decay, kept
    separate so memory-access derivation can optionally exclude it.
    """

    macs: int
    acs: int
    membrane_updates_effective: int
    membrane_updates_dense: int
    leak_macs: int = 0

    def __post_init__(self) -> None:
        for name in ("macs", "acs", "membrane_updates_effective", "membrane_updates_dense", "leak_macs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.membrane_updates_effective > self.membrane_updates_dense:
            raise ValueError("effective membrane updates cannot exceed dense count")
        if self.leak_macs > self.macs:
            raise ValueError("leak_macs cannot exceed macs")

    @property
    def total_sops(self) -> int:
        return self.macs + self.acs

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            macs=self.macs + other.macs,
            acs=self.acs + other.acs,
            membrane_updates_effective=self.membrane_updates_effective
            + other.membrane_updates_effective,
            membrane_updates_dense=self.membrane_updates_dense + other.membrane_updates_dense,
            leak_macs=self.leak_macs + other.leak_macs,
        )

    def scaled(self, k: int) -> "OpCounts":
        return OpCounts(
            macs=self.macs * k,
            acs=self.acs * k,
            membrane_updates_effective=self.membrane_updates_effective * k,
            membrane_updates_dense=self.membrane_updates_dense * k,
            leak_macs=self.leak_macs * k,
        )


@dataclass(frozen=True)
class MemoryAccessCounts:
    reads: int
    writes: int

    def __post_init__(self) -> None:
        if self.reads < 0 or self.writes < 0:
            raise ValueError("access counts must be >= 0")

    @property
    def total(self) -> int:
        return self.reads + self.writes


@dataclass(frozen=True)
class SparsityReport:
    activation_sparsity: float
    opportunities: int
    spikes: int


def effective_synops(trace: TraceCounts) -> OpCounts:
    """Sum the trace's per-timestep tallies into one OpCounts."""
    return OpCounts(
        macs=sum(trace.macs),
        acs=sum(trace.acs),
        membrane_updates_effective=sum(trace.membrane_updates),
        membrane_updates_dense=trace.non_input_neurons * trace.timesteps,
        leak_macs=sum(trace.leak_macs),
    )


def derive_accesses(macs, acs, leak_macs, *, include_leak_macs: bool = True):
    """(reads, writes) at the fixed per-op ratios, for op totals or for one
    timestep's tallies.

    Leak MACs are part of the MAC tally by default; pass
    ``include_leak_macs=False`` to derive traffic from synaptic ops only.
    """
    macs = macs if include_leak_macs else macs - leak_macs
    return READS_PER_MAC * macs + READS_PER_AC * acs, WRITES_PER_MAC * macs + WRITES_PER_AC * acs


def memory_accesses(ops: OpCounts, *, include_leak_macs: bool = True) -> MemoryAccessCounts:
    """Read/write counts of the op totals (see ``derive_accesses``)."""
    return MemoryAccessCounts(*derive_accesses(
        ops.macs, ops.acs, ops.leak_macs, include_leak_macs=include_leak_macs
    ))


def activation_sparsity(*traces: TraceCounts) -> SparsityReport:
    """Fraction of silent neuron-timesteps over the non-input layers.

    Input spikes are workload, not model behaviour, so they do not enter the
    denominator.  Accepts several traces and aggregates spike and
    opportunity counts.  Whether the model is too dense is the catalog's
    ``ALERT_RULES["sparsity"]`` to judge.
    """
    if not traces:
        raise ValueError("activation_sparsity needs at least one trace")
    opportunities = 0
    spikes = 0
    for trace in traces:
        opportunities += trace.non_input_neurons * trace.timesteps
        spikes += trace.non_input_spikes
    if opportunities == 0:
        raise ValueError("zero opportunities: trace has no non-input neuron-timesteps")
    return SparsityReport(
        activation_sparsity=1.0 - spikes / opportunities,
        opportunities=opportunities,
        spikes=spikes,
    )
