"""Level-front stage sharding: one analysis, many worker processes.

On an acyclic stage graph, the serial engine's priority worklist visits
stages level by level — a stage pops only after every predecessor has
settled, so its single full evaluation is final.  That ordering exposes
the parallelism exploited here: all stages of one topological level are
independent (their triggers live in strictly lower levels, already
settled), so each *level front* can be partitioned into chunks and
evaluated concurrently, with a deterministic merge between fronts.

Bit-identity with the serial engine follows from three facts:

1. every candidate a stage can produce depends only on arrivals at its
   trigger nodes, which the front's snapshot already holds at their final
   values (acyclicity);
2. the per-target best is chosen with the same ``_beats`` tie-break the
   serial engine uses, which is evaluation-order independent;
3. each internal node belongs to exactly one stage, so merging chunk
   results in ascending stage order commits each (node, transition)
   exactly once — there is nothing order-dependent left to race on.

Graphs with feedback (latches, bootstrap stages) have no level structure
to shard, so they take the recorded serial fallback: same answer, with
the event visible in :class:`~repro.perf.ParallelPerf`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..core.models import DelayModel
from ..core.timing import TimingAnalyzer, TimingResult
from ..core.timing.analyzer import Arrival, Event, InputSpec, _PRIMARY_RANK
from ..core.timing.analyzer import _TRANSITIONS
from ..core.timing.paths import StateMap
from ..errors import TimingError
from ..netlist import Network
from ..perf import ParallelPerf, PerfCounters
from ..trace import spans as _trace
from .chunking import balanced_chunks, chunk_weight, structural_weight
from .executor import (PARENT_SLOT, ParallelConfig, ParallelExecutor,
                       record_dispatch)
from .worker import AnalyzerSpec, encode_arrivals, run_stage_chunk

InputMap = Mapping[str, Union[InputSpec, float]]


def _stage_trigger_nodes(stage) -> frozenset:
    """The nodes whose arrivals can produce candidates in *stage*."""
    return stage.gate_inputs | stage.boundary_nodes


def _serial_stage_chunk(analyzer: TimingAnalyzer,
                        arrivals: Dict[Event, Arrival]):
    """Parent-process stand-in for :func:`~.worker.run_stage_chunk`."""
    import time as _time

    def run(task: Tuple) -> Tuple:
        chunk_id, stage_indexes, _wire = task
        stages = analyzer.graph.stages
        start = _time.perf_counter()
        stage_results = tuple(
            (index,
             tuple(analyzer.stage_candidates(stages[index], arrivals)))
            for index in sorted(stage_indexes)
        )
        elapsed = _time.perf_counter() - start
        return (chunk_id, PARENT_SLOT, elapsed, stage_results, {}, {}, ())

    return run


def parallel_analyze(network: Network, inputs: InputMap, *,
                     jobs: int = 1,
                     model: Optional[DelayModel] = None,
                     states: Optional[StateMap] = None,
                     initial_states: Optional[StateMap] = None,
                     slope_quantum: float = 0.0,
                     kernel: str = "numpy",
                     analyzer: Optional[TimingAnalyzer] = None,
                     config: Optional[ParallelConfig] = None,
                     executor: Optional[ParallelExecutor] = None
                     ) -> TimingResult:
    """Analyze one scenario with level-front stage sharding.

    With ``jobs <= 1`` (or a feedback stage graph, where fronts don't
    exist) this delegates to the serial engine — the result still carries
    a :class:`ParallelPerf` so callers see which strategy actually ran.
    Pass an *executor* to reuse a warm pool across calls; otherwise one
    is created and torn down per call.
    """
    if analyzer is None:
        analyzer = TimingAnalyzer(network, model=model, states=states,
                                  initial_states=initial_states,
                                  slope_quantum=slope_quantum,
                                  kernel=kernel)
    if config is None:
        config = ParallelConfig(jobs=jobs)
    else:
        config.jobs = jobs

    pperf = ParallelPerf(jobs=max(jobs, 1), strategy="level-front",
                         start_method=config.resolved_start_method())

    if jobs <= 1:
        pperf.strategy = "serial"
        pperf.start_method = ""
        result = analyzer.analyze(inputs)
        result.perf.parallel = pperf
        return result

    if analyzer.graph.has_feedback():
        pperf.record_fallback(
            "stage graph has feedback (latch or bootstrap loop): level "
            "fronts are undefined, running the serial engine")
        result = analyzer.analyze(inputs)
        result.perf.parallel = pperf
        return result

    if analyzer._run_perf is not None:
        raise TimingError(
            "parallel_analyze() re-entered: a TimingAnalyzer runs one "
            "scenario at a time")

    own_executor = executor is None
    if executor is None:
        executor = ParallelExecutor(AnalyzerSpec.from_analyzer(analyzer),
                                    config)

    perf = PerfCounters()
    analyzer._run_perf = perf
    try:
        with perf.timer("analyze"):
            arrivals = _propagate_fronts(analyzer, inputs, config, executor,
                                         perf, pperf)
    finally:
        analyzer._run_perf = None
        analyzer.perf.merge(perf)
        if own_executor:
            executor.shutdown()

    perf.parallel = pperf
    return TimingResult(network=analyzer.network,
                        model_name=analyzer.model.name,
                        arrivals=arrivals, perf=perf)


def _propagate_fronts(analyzer: TimingAnalyzer, inputs: InputMap,
                      config: ParallelConfig, executor: ParallelExecutor,
                      perf: PerfCounters,
                      pperf: ParallelPerf) -> Dict[Event, Arrival]:
    stages = analyzer.graph.stages
    levels = analyzer.graph.levels()
    fronts: Dict[int, List[int]] = {}
    for index, level in levels.items():
        fronts.setdefault(level, []).append(index)

    arrivals: Dict[Event, Arrival] = {}
    ranks: Dict[Event, int] = {}
    normalized = analyzer._normalize_inputs(inputs)
    for name, spec in normalized.items():
        for transition in _TRANSITIONS:
            time = spec.arrival(transition)
            if time is None:
                continue
            event = Event(name, transition)
            arrivals[event] = Arrival(time=time, slope=spec.slope)
            ranks[event] = _PRIMARY_RANK

    serial_fn = _serial_stage_chunk(analyzer, arrivals)

    for level in sorted(fronts):
        # A stage only produces candidates if at least one trigger node
        # has an arrival — the same stages the serial worklist visits.
        front = [index for index in sorted(fronts[level])
                 if any(Event(node, t) in arrivals
                        for node in _stage_trigger_nodes(stages[index])
                        for t in _TRANSITIONS)]
        if not front:
            continue
        perf.incr("stage_visits", len(front))
        perf.incr("stage_full_evals", len(front))

        if len(front) < config.min_front:
            # Tiny front: pool IPC would dominate, evaluate inline.
            for index in front:
                for event, arrival, rank in analyzer.stage_candidates(
                        stages[index], arrivals):
                    analyzer._commit(event, arrival, rank, arrivals, ranks)
            continue

        weights = [analyzer.stage_costs.weight(
                       index, fallback=structural_weight(stages[index]))
                   for index in front]
        chunks = balanced_chunks(weights, config.jobs)
        tasks = []
        for chunk_id, chunk in enumerate(chunks):
            indexes = tuple(front[i] for i in chunk)
            needed = frozenset().union(
                *(_stage_trigger_nodes(stages[i]) for i in indexes))
            tasks.append((chunk_id, indexes,
                          encode_arrivals(arrivals, needed)))

        results = executor.run_chunks(
            run_stage_chunk, tasks, f"level {level}", pperf, serial_fn)
        record_dispatch(
            pperf, executor, f"level {level} ({len(front)} stages)",
            results,
            items=[len(task[1]) for task in tasks],
            weights=[chunk_weight(weights, chunk) for chunk in chunks])

        # Deterministic merge: ascending stage index, then the engine's
        # own tie-break (each internal node lives in exactly one stage,
        # so commits cannot conflict across chunks).
        tracer = _trace.current()
        merged: List[Tuple[int, Tuple]] = []
        for result in results:
            merged.extend(result[3])
            analyzer.stage_costs.merge_raw(result[4])
            counters = result[5]
            pperf.record_template_stats(counters)
            for name, value in counters.items():
                perf.incr(name, value)
            if tracer is not None and len(result) > 6:
                tracer.extend(result[6])
        merged.sort(key=lambda item: item[0])
        for _index, candidates in merged:
            for event, arrival, rank in candidates:
                analyzer._commit(event, arrival, rank, arrivals, ranks)

    return arrivals
