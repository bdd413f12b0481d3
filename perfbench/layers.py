"""Which public functions mark each layer boundary, per workload.

Each ``install_*`` function wraps the calls into one workload's layers
with :class:`tracer.Tracer` spans and returns a callable that undoes
the wrapping.  Span names are the per-layer metric names of
``BENCHMARK.json`` (``<module>.<quantity>``), so a layer's self time is
already the metric.  A boundary that a later version of the program no
longer has is skipped, and its time falls to the enclosing layer or to
``unattributed_s``.

``core``/``domains`` (they run inside verifier calls and were measured
as negligible), ``fuzz.dist`` (it needs at least three processes),
and ``obs``/``faults`` (off by default) are deliberately not wrapped.
"""

from __future__ import annotations

import multiprocessing
import os
from time import perf_counter
from typing import Callable, List

from tracer import Tracer

#: Private key a forked campaign worker's span totals ride home under,
#: on the first result of each batch (popped before the merge reads it).
SHARD_KEY = "_perfbench_shard"


class _Patches:
    """The attributes a workload's wrappers replaced, to put back."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def wrap(self, tracer: Tracer, owner, name: str, layer: str,
             on_exit=None) -> None:
        if getattr(owner, name, None) is None:
            return
        self.set(owner, name, tracer.wrap(layer, getattr(owner, name),
                                          on_exit))

    def set(self, owner, name: str, replacement) -> None:
        original = getattr(owner, name)
        setattr(owner, name, replacement)
        self._undo.append(lambda: setattr(owner, name, original))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _wrap_verifier(p: _Patches, tracer: Tracer) -> None:
    from repro.bpf.program import Program
    from repro.bpf.verifier.absint import Verifier

    def count_insns(result, _args, _kwargs) -> None:
        tracer.count("bpf.verifier.insns", result.insns_processed)

    p.wrap(tracer, Verifier, "verify", "bpf.verifier.self_s", count_insns)
    p.wrap(tracer, Program, "compiled", "bpf.program.compile_s")
    p.wrap(tracer, Program, "compiled_verifier", "bpf.program.compile_s")


def _wrap_oracle(p: _Patches, tracer: Tracer) -> None:
    """The oracle path: generator, oracle, verifier, interpreter."""
    from repro.bpf.interpreter import Machine
    from repro.fuzz import campaign, driver
    from repro.fuzz.oracle import DifferentialOracle

    _wrap_verifier(p, tracer)
    for module in (driver, campaign):
        p.wrap(tracer, module, "generate_program", "fuzz.generator.self_s")
        p.wrap(tracer, module, "shrink_program", "fuzz.shrink.self_s")

    def count_checks(report, _args, _kwargs) -> None:
        tracer.count("fuzz.oracle.checks", report.checks)

    p.wrap(tracer, DifferentialOracle, "check_program",
           "fuzz.oracle.self_s", count_checks)
    p.wrap(tracer, DifferentialOracle, "_build_plans", "fuzz.oracle.plan_s")
    p.wrap(tracer, DifferentialOracle, "_make_ctx", "fuzz.oracle.ctx_s")

    run = Machine.run

    def run_timing_steps(self, program, *args, **kwargs):
        # The per-step containment callback fires ~1000 times per
        # program: its time is summed here, not recorded as spans.
        on_step = kwargs.get("on_step")
        if on_step is None:
            return run(self, program, *args, **kwargs)
        spent = [0.0]

        def timed_step(idx, regs) -> None:
            start = perf_counter()
            on_step(idx, regs)
            spent[0] += perf_counter() - start

        kwargs["on_step"] = timed_step
        try:
            return run(self, program, *args, **kwargs)
        finally:
            tracer.add_child_time("fuzz.oracle.containment_s", spent[0])

    p.set(Machine, "run", tracer.wrap("bpf.interpreter.self_s",
                                      run_timing_steps))


def install_fuzz(tracer: Tracer) -> Callable[[], None]:
    p = _Patches()
    _wrap_oracle(p, tracer)
    return p.undo


class WorkerTotals:
    """Span totals shipped home by forked campaign workers."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.batch_s = 0.0


def install_campaign(tracer: Tracer, workers: WorkerTotals) -> Callable[[], None]:
    """Parent-side spans, plus worker spans recovered through fork.

    A worker is a fork of the parent, so it inherits the wrapped
    functions; its totals come back on the first result of each batch.
    Under another start method the workers run unwrapped code and their
    time stays in ``unattributed_s``.
    """
    from repro.fuzz import campaign

    p = _Patches()
    _wrap_oracle(p, tracer)
    p.wrap(tracer, campaign, "mutate_program", "fuzz.mutate.self_s")

    def count_batches(outcome, args, _kwargs) -> None:
        tracer.count("fuzz.resilience.batches", len(args[0]))
        tracer.count("fuzz.resilience.retries", outcome.retries)

    p.wrap(tracer, campaign, "run_leased_batches", "fuzz.resilience.wait_s",
           count_batches)

    merge = campaign.merge_round_results

    def merge_absorbing_shards(*args, **kwargs):
        results = kwargs["results"] if "results" in kwargs else args[5]
        for res in results:
            shard = res.pop(SHARD_KEY, None)
            if shard is not None:
                workers.batch_s += shard.pop("batch_s")
                workers.tracer.absorb(shard)
        return merge(*args, **kwargs)

    p.set(campaign, "merge_round_results",
          tracer.wrap("fuzz.campaign.merge_s", merge_absorbing_shards))

    if multiprocessing.get_start_method() == "fork":
        batch = campaign._fuzz_batch

        def batch_shipping_shard(indices, attempt, inject):
            if tracer.pid != os.getpid():
                tracer.reset()  # a fresh fork: drop the parent's spans
            start = perf_counter()
            results = batch(indices, attempt, inject)
            shard = tracer.snapshot()
            shard["batch_s"] = perf_counter() - start
            tracer.reset()
            if results:
                results[0][SHARD_KEY] = shard
            return results

        p.set(campaign, "_fuzz_batch", batch_shipping_shard)
    return p.undo


def install_service(tracer: Tracer) -> Callable[[], None]:
    """Server-process spans (installed by ``serve_traced.py``)."""
    from repro.api import models, server
    from repro.api.models import Verdict
    from repro.api.service import VerificationService
    from repro.bpf.program import Program

    p = _Patches()
    _wrap_verifier(p, tracer)
    for name in ("program_from_json_payload", "program_from_wire"):
        p.wrap(tracer, models, name, "api.ingest.self_s")
    p.wrap(tracer, Program, "canonical_hash", "bpf.canon.hash_s")
    p.wrap(tracer, VerificationService, "verify", "api.service.verify_s")
    p.wrap(tracer, Verdict, "to_payload", "api.models.render_s")

    httpd = server.ThreadingHTTPServer

    def httpd_with_traced_handler(address, handler):
        handler.do_POST = tracer.wrap("api.server.handler_s",
                                      handler.do_POST)
        return httpd(address, handler)

    p.set(server, "ThreadingHTTPServer", httpd_with_traced_handler)
    return p.undo


def install_prove(tracer: Tracer) -> Callable[[], None]:
    from repro.verify.sat import encode
    from repro.verify.sat.solver import Solver

    p = _Patches()
    p.wrap(tracer, encode, "check_operator_soundness", "verify.sat.encode_s")

    def note_clauses(_result, args, _kwargs) -> None:
        args[0]._perfbench_clauses = len(args[0].clauses)

    def count_learned(_result, args, _kwargs) -> None:
        solver = args[0]
        tracer.count("verify.sat.learned",
                     len(solver.clauses) - solver._perfbench_clauses)

    p.wrap(tracer, Solver, "__init__", "verify.sat.load_s", note_clauses)
    p.wrap(tracer, Solver, "solve", "verify.sat.solve_s", count_learned)
    return p.undo
