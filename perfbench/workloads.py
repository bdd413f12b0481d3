"""The four benchmark workloads: inputs, load, correctness checks, metrics.

Every workload drives the program through its public entry points and
sees only inputs generated from the workload seed.  A run measures for
``seconds`` with tracing off and reports the end-to-end metrics; a
traced run (``trace=True``) measures half the time untraced and half
traced, reports the per-layer metrics of the traced half, and takes the
tracing overhead as the difference between the two halves.

Units of work, which ``throughput_per_s``, ``p50_ms`` and ``p99_ms``
count and time:

* ``fuzz``     -- one ``run_campaign`` call of ``FUZZ_BUDGET`` programs
                  (throughput counts programs);
* ``campaign`` -- one ``run_precision_campaign`` call of
                  ``CAMPAIGN_BUDGET`` programs (throughput counts programs);
* ``service``  -- one ``POST /verify`` request;
* ``prove``    -- one ``check_operator_soundness`` proof.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import layers
from tracer import Tracer, format_table, layer_table

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Seed whose fuzz counters are recorded in ``expected.json``.
DEFAULT_SEED = 1
FUZZ_BUDGET = 500
CAMPAIGN_BUDGET = 200
CAMPAIGN_ROUNDS = 2
#: Distinct campaigns per run (each with its own one-worker reference).
CAMPAIGN_SEEDS = 4
#: Load comes from one process using at most ``nproc`` (2) workers,
#: threads or connections.
WORKERS = 2
#: Requests in the service stream; about half are distinct programs.
SERVICE_REQUESTS = 3000
#: ``mul`` at the largest width whose proof (about 1 s here; ``mul@6``
#: takes about 10 s) repeats often enough in one run to take a median.
PROOFS: Tuple[Tuple[str, int], ...] = (("add", 32), ("sub", 32), ("mul", 5))
#: Cold starts timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 120

E2E_METRICS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
}

#: Per-layer seconds: the rows of the traced-run table.
LAYER_ROWS = [
    "fuzz.generator.self_s", "fuzz.mutate.self_s", "fuzz.oracle.self_s",
    "fuzz.oracle.plan_s", "fuzz.oracle.ctx_s", "fuzz.oracle.containment_s",
    "bpf.verifier.self_s", "bpf.program.compile_s", "bpf.interpreter.self_s",
    "fuzz.shrink.self_s", "fuzz.resilience.wait_s", "fuzz.campaign.merge_s",
    "api.ingest.self_s", "bpf.canon.hash_s", "api.service.verify_s",
    "api.models.render_s", "api.server.handler_s", "api.server.wire_s",
] + [
    f"verify.sat.{part}.{op}"
    for op, _ in PROOFS for part in ("encode_s", "load_s", "solve_s")
]

LAYER_METRICS = dict(
    [(name, "s") for name in LAYER_ROWS + ["unattributed_s"]]
    + [
        ("fuzz.mutate.calls", "count"),
        ("bpf.verifier.calls", "count"),
        ("bpf.verifier.us_per_insn", "us"),
        ("bpf.interpreter.runs", "count"),
        ("fuzz.oracle.checks", "count"),
        ("fuzz.shrink.calls", "count"),
        ("fuzz.resilience.batches", "count"),
        ("fuzz.resilience.retries", "count"),
        ("api.service.hit_share", "share"),
        ("api.server.self_ms", "ms"),
    ]
    + [
        (f"verify.sat.{part}.{op}", "count")
        for op, _ in PROOFS for part in ("vars", "clauses", "learned")
    ]
    + [(f"prove_s.{op}", "s") for op, _ in PROOFS]
    + [
        ("trace.wall_s", "s"),
        ("trace.units", "count"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_share", "share"),
    ]
)


@dataclass
class Outcome:
    """What one run of a workload measured."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: human-readable lines printed before the result line
    notes: List[str] = field(default_factory=list)
    #: traced runs: span data written beside the results
    spans: Optional[Dict] = None


# -- shared helpers ---------------------------------------------------------


def subprocess_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def repro_cli(*argv: str) -> List[str]:
    return [sys.executable, "-m", "repro", *argv]


def cold_start_s(argv: Sequence[str]) -> float:
    """Wall time of one fresh ``repro`` process running ``argv``."""
    start = perf_counter()
    done = subprocess.run(
        argv, cwd=ROOT, env=subprocess_env(), capture_output=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    elapsed = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv[2:])} exited {done.returncode}: "
            f"{done.stderr.decode(errors='replace')[-500:]}"
        )
    return elapsed


def nearest_rank(values: Sequence[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_metrics(
    unit_s: List[float], items: int, busy_s: float
) -> Dict[str, float]:
    """Throughput and unit-latency percentiles of a measured phase."""
    return {
        "throughput_per_s": items / busy_s,
        "p50_ms": 1000.0 * statistics.median(unit_s),
        "p99_ms": 1000.0 * nearest_rank(unit_s, 99),
    }


def run_units(
    do_unit: Callable[[int], None], seconds: float, start_index: int = 0
) -> Tuple[List[float], float, int]:
    """Run whole units until ``seconds`` have passed (at least one).

    Returns the per-unit times, the wall time and the next unit index.
    """
    times: List[float] = []
    index = start_index
    began = perf_counter()
    while not times or perf_counter() - began < seconds:
        start = perf_counter()
        do_unit(index)
        times.append(perf_counter() - start)
        index += 1
    return times, perf_counter() - began, index


def overhead(untraced_unit_s: float, traced_wall_s: float,
             traced_units: int) -> Dict[str, float]:
    """Traced minus untraced wall time for the traced phase's work."""
    expected = untraced_unit_s * traced_units
    return {
        "trace.overhead_s": traced_wall_s - expected,
        "trace.overhead_share": traced_wall_s / expected - 1.0,
    }


def layer_metrics(rows: Dict[str, float], wall_s: float,
                  extra: Dict[str, float]) -> Tuple[Dict[str, float], str]:
    """Every per-layer metric (0 where the layer is off this path)."""
    table = layer_table({k: v for k, v in rows.items() if v}, wall_s)
    metrics = {name: 0.0 for name in LAYER_METRICS}
    metrics.update(table)
    metrics.update(extra)
    metrics["trace.wall_s"] = wall_s
    return metrics, table


def oracle_path_rows(self_s: Dict[str, float]) -> Dict[str, float]:
    return {
        name: self_s.get(name, 0.0) for name in (
            "fuzz.generator.self_s", "fuzz.mutate.self_s",
            "fuzz.oracle.self_s", "fuzz.oracle.plan_s", "fuzz.oracle.ctx_s",
            "fuzz.oracle.containment_s", "bpf.verifier.self_s",
            "bpf.program.compile_s", "bpf.interpreter.self_s",
            "fuzz.shrink.self_s",
        )
    }


def oracle_path_counts(counts: Dict[str, int],
                       verifier_s: float) -> Dict[str, float]:
    insns = counts.get("bpf.verifier.insns", 0)
    return {
        "fuzz.mutate.calls": counts.get("fuzz.mutate.self_s", 0),
        "bpf.verifier.calls": counts.get("bpf.verifier.self_s", 0),
        "bpf.verifier.us_per_insn": 1e6 * verifier_s / insns if insns else 0.0,
        "bpf.interpreter.runs": counts.get("bpf.interpreter.self_s", 0),
        "fuzz.oracle.checks": counts.get("fuzz.oracle.checks", 0),
        "fuzz.shrink.calls": counts.get("fuzz.shrink.self_s", 0),
    }


# -- fuzz ---------------------------------------------------------------------


def load_expected() -> Dict:
    return json.loads((HERE / "expected.json").read_text())


def fuzz_counters(stats) -> Dict[str, int]:
    return {
        "executed": stats.executed,
        "accepted": stats.accepted,
        "rejected": stats.rejected,
        "rejected_clean": stats.rejected_clean,
        "containment_checks": stats.containment_checks,
    }


def run_fuzz(seed: int, seconds: float, trace: bool) -> Outcome:
    """``repro fuzz``'s driver: mixed profile, one inline worker."""
    setup = [
        cold_start_s(repro_cli("fuzz", "--budget", "1", "--seed", str(seed)))
        for _ in range(SETUP_REPEATS)
    ]
    from repro.fuzz.driver import CampaignConfig, run_campaign

    out = Outcome()

    def call(k: int):
        # Call k fuzzes its own programs: a long campaign's inputs are
        # distinct, so compiled-closure caches warm no more than there.
        return run_campaign(CampaignConfig(
            budget=FUZZ_BUDGET, seed=seed * 1_000_003 + k, workers=1,
            profile="mixed",
        ))

    def check(result) -> None:
        stats = result.stats
        out.attempted += stats.budget
        bad = len(result.corpus.violations()) + stats.quarantined
        if stats.executed != stats.budget:
            bad = stats.budget
        out.failed += min(stats.budget, bad)

    # Call 0 warms up and is the reference: it runs again after the
    # measurement and must repeat its counters exactly, and for the
    # default seed it must match the counters recorded for it.
    def unit(k: int) -> Dict[str, int]:
        result = call(k)
        check(result)
        return fuzz_counters(result.stats)

    reference = unit(0)
    expected = load_expected()["fuzz"]["counters"]
    if seed == DEFAULT_SEED and reference != expected:
        out.notes.append(f"fuzz: counters {reference} != recorded "
                         f"{expected}")
        out.failed += FUZZ_BUDGET

    if not trace:
        times, _, _ = run_units(unit, seconds, start_index=1)
        out.metrics = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": own_peak_rss_mb(),
            **unit_metrics(times, FUZZ_BUDGET * len(times), sum(times)),
        }
        out.notes.append(f"fuzz: {len(times)} calls of {FUZZ_BUDGET} "
                         f"programs (p50/p99 over {len(times)} calls)")
    else:
        plain, plain_wall, next_k = run_units(unit, seconds / 2, 1)
        tracer = Tracer()
        undo = layers.install_fuzz(tracer)
        try:
            traced, wall, _ = run_units(unit, seconds / 2, next_k)
        finally:
            undo()
        snap = tracer.snapshot()
        self_s, counts = snap["self_s"], snap["counts"]
        metrics, table = layer_metrics(
            oracle_path_rows(self_s), wall, {
                **oracle_path_counts(
                    counts, self_s.get("bpf.verifier.self_s", 0.0)),
                "trace.units": FUZZ_BUDGET * len(traced),
                "trace.spans": len(snap["spans"]) + snap["dropped"],
                **overhead(plain_wall / len(plain), wall, len(traced)),
            })
        out.metrics = metrics
        out.notes.append(format_table("fuzz", table, wall))
        out.spans = {"fuzz": snap}

    again = unit(0)
    if again != reference:
        out.notes.append(f"fuzz: call 0 repeated {again} != {reference}")
        out.failed += FUZZ_BUDGET
    return out


# -- campaign -----------------------------------------------------------------


def report_digest(report_json: str) -> str:
    return hashlib.sha256(report_json.strip().encode()).hexdigest()


def run_campaign_workload(seed: int, seconds: float, trace: bool,
                          out_dir: Path) -> Outcome:
    """Precision campaign with mutation feedback on two workers."""
    setup = [
        cold_start_s(repro_cli(
            "campaign", "--budget", "4", "--rounds", "1",
            "--workers", str(WORKERS), "--seed", str(seed),
        ))
        for _ in range(SETUP_REPEATS)
    ]
    # Calls cycle over CAMPAIGN_SEEDS campaigns, so one run averages
    # over several inputs.  Each campaign's one-worker reference runs in
    # its own process, so this process forks its campaign workers from
    # the same cold state every call.
    seeds = [seed * 1_000_003 + j for j in range(CAMPAIGN_SEEDS)]
    references = []
    for campaign_seed in seeds:
        ref_path = out_dir / f"campaign-reference-{campaign_seed}.json"
        subprocess.run(
            repro_cli(
                "campaign", "--budget", str(CAMPAIGN_BUDGET),
                "--rounds", str(CAMPAIGN_ROUNDS),
                "--seed", str(campaign_seed), "--workers", "1",
                "--report", str(ref_path),
            ),
            cwd=ROOT, env=subprocess_env(), capture_output=True,
            check=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        references.append(report_digest(ref_path.read_text()))
    from repro.fuzz.campaign import CampaignSpec, run_precision_campaign

    out = Outcome()

    def unit(k: int) -> None:
        j = k % CAMPAIGN_SEEDS
        result = run_precision_campaign(CampaignSpec(   # no verdict cache
            budget=CAMPAIGN_BUDGET, rounds=CAMPAIGN_ROUNDS, seed=seeds[j],
            workers=WORKERS,
        ))
        out.attempted += CAMPAIGN_BUDGET
        if report_digest(result.report.to_json()) != references[j]:
            out.failed += CAMPAIGN_BUDGET
            return
        lost = sum(len(q["indices"]) for q in result.quarantined)
        out.failed += min(CAMPAIGN_BUDGET,
                          lost + len(result.corpus.violations()))

    if not trace:
        times, _, _ = run_units(unit, seconds)
        out.metrics = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": own_peak_rss_mb(),
            **unit_metrics(times, CAMPAIGN_BUDGET * len(times), sum(times)),
        }
        out.notes.append(f"campaign: {len(times)} calls of "
                         f"{CAMPAIGN_BUDGET} programs on {WORKERS} workers "
                         f"(p50/p99 over {len(times)} calls)")
        return out

    plain, plain_wall, _ = run_units(unit, seconds / 2)
    tracer = Tracer()
    workers = layers.WorkerTotals()
    undo = layers.install_campaign(tracer, workers)
    try:
        traced, wall, _ = run_units(unit, seconds / 2)
    finally:
        undo()
    parent = tracer.snapshot()
    shards = workers.tracer.snapshot()
    rows = oracle_path_rows(parent["self_s"])
    for name, seconds_w in oracle_path_rows(shards["self_s"]).items():
        # Worker seconds run on WORKERS processes at once: divided by
        # the worker count they share the parent's wall-clock axis.
        rows[name] += seconds_w / WORKERS
    rows["fuzz.resilience.wait_s"] = (
        parent["self_s"].get("fuzz.resilience.wait_s", 0.0)
        - workers.batch_s / WORKERS
    )
    rows["fuzz.campaign.merge_s"] = parent["self_s"].get(
        "fuzz.campaign.merge_s", 0.0)
    counts = dict(parent["counts"])
    for name, n in shards["counts"].items():
        counts[name] = counts.get(name, 0) + n
    verifier_total = (parent["self_s"].get("bpf.verifier.self_s", 0.0)
                      + shards["self_s"].get("bpf.verifier.self_s", 0.0))
    metrics, table = layer_metrics(rows, wall, {
        **oracle_path_counts(counts, verifier_total),
        "fuzz.resilience.batches": counts.get("fuzz.resilience.batches", 0),
        "fuzz.resilience.retries": counts.get("fuzz.resilience.retries", 0),
        "trace.units": CAMPAIGN_BUDGET * len(traced),
        "trace.spans": (len(parent["spans"]) + parent["dropped"]
                        + len(shards["spans"]) + shards["dropped"]),
        **overhead(plain_wall / len(plain), wall, len(traced)),
    })
    out.metrics = metrics
    out.notes.append(format_table(
        f"campaign (worker layers: worker-seconds / {WORKERS})", table, wall))
    out.spans = {"parent": parent, "workers": shards}
    return out


# -- service ------------------------------------------------------------------


@dataclass
class Expected:
    """The in-process ``Verifier`` verdict for one program."""

    ok: bool
    error_index: Optional[int]


def service_stream(seed: int, requests: int = SERVICE_REQUESTS
                   ) -> Tuple[List[str], List[int]]:
    """Distinct programs (hex) and the request order over them.

    Each request is, with even odds, a new program (a generated one, or
    every other time a mutant of an earlier one, so that some are
    rejected) or a repeat of a program already sent.
    """
    from repro.fuzz.driver import program_seed
    from repro.fuzz.generator import generate_program
    from repro.fuzz.mutate import mutate_program

    rng = random.Random(f"perfbench-service-{seed}")
    programs = []
    order: List[int] = []
    for _ in range(requests):
        if programs and rng.random() < 0.5:
            order.append(rng.randrange(len(programs)))
            continue
        program = generate_program(
            program_seed(seed, len(programs)), "mixed").program
        if programs and len(programs) % 2:
            base = programs[rng.randrange(len(programs))]
            program = mutate_program(base, donor=program, rng=rng)
        order.append(len(programs))
        programs.append(program)
    return [p.to_bytes().hex() for p in programs], order


def expected_verdicts(programs_hex: List[str]) -> List[Expected]:
    from repro.bpf.program import Program
    from repro.bpf.verifier import Verifier

    verifier = Verifier(ctx_size=64)
    out = []
    for text in programs_hex:
        result = verifier.verify(Program.from_bytes(bytes.fromhex(text)))
        out.append(Expected(
            result.ok,
            result.errors[0].insn_index if result.errors else None,
        ))
    return out


def verdict_matches(expected: Expected, status: int, body: bytes) -> bool:
    """A 200 whose verdict and error index equal the in-process ones."""
    if status != 200:
        return False
    try:
        payload = json.loads(body)
    except ValueError:
        return False
    error = payload.get("error") or {}
    return (
        payload.get("verdict") == ("accept" if expected.ok else "reject")
        and error.get("index") == expected.error_index
    )


class Server:
    """``repro serve`` in its own process (optionally traced)."""

    def __init__(self, spans_path: Optional[Path] = None) -> None:
        if spans_path is None:
            argv = repro_cli("serve")
        else:
            argv = [sys.executable, str(HERE / "serve_traced.py"),
                    str(spans_path), "serve"]
        argv += ["--port", "0", "--workers", str(WORKERS)]
        start = perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=subprocess_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = self.process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            self.get("/healthz")
        except BaseException:
            self.stop()
            raise
        #: Popen to the first healthy answer
        self.start_s = perf_counter() - start

    def get(self, path: str) -> Dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return json.loads(response.read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


@dataclass
class LoadResult:
    latencies_s: List[float]
    wall_s: float
    failed: int


def drive(server: Server, programs_hex: List[str], order: List[int],
          expected: List[Expected], seconds: float) -> LoadResult:
    """Closed loop: WORKERS persistent connections, each sending its
    next request as soon as the previous answer arrives, until
    ``seconds`` pass or the stream is used up."""
    lock = threading.Lock()
    cursor = [0]
    latencies: List[float] = []
    failed = [0]
    errors: List[Exception] = []
    began = perf_counter()

    def lane() -> None:
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        try:
            while perf_counter() - began < seconds:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(order):
                    return
                program = order[i]
                body = json.dumps({"program_hex": programs_hex[program],
                                   "ctx_size": 64}).encode()
                start = perf_counter()
                conn.request("POST", "/verify", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                data = response.read()
                elapsed = perf_counter() - start
                ok = verdict_matches(expected[program], response.status, data)
                with lock:
                    latencies.append(elapsed)
                    failed[0] += not ok
        except Exception as exc:   # re-raised by the caller
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=lane) for _ in range(WORKERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return LoadResult(latencies, perf_counter() - began, failed[0])


def run_service(seed: int, seconds: float, trace: bool,
                out_dir: Path) -> Outcome:
    """``repro serve`` under a closed loop of persistent connections."""
    out = Outcome()
    programs_hex, order = service_stream(seed)
    expected = expected_verdicts(programs_hex)
    starts: List[float] = []
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server()
            starts.append(server.start_s)
        half = seconds / 2 if trace else seconds
        load = drive(server, programs_hex, order, expected, half)
        stats = server.get("/stats")["service"]
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    out.attempted += len(load.latencies_s)
    out.failed += load.failed
    hits = stats["cache"]["hits"]
    misses = stats["cache"]["misses"]
    out.notes.append(
        f"service: {len(load.latencies_s)} requests over {WORKERS} "
        f"persistent HTTP/1.1 connections (p50/p99 over "
        f"{len(load.latencies_s)} samples); cache hits {hits}, "
        f"misses {misses}"
    )
    if not trace:
        out.metrics = {
            "setup_s": statistics.median(starts),
            "peak_rss_mb": rss,
            **unit_metrics(load.latencies_s, len(load.latencies_s),
                           load.wall_s),
        }
        return out

    spans_path = out_dir / f"service-server-spans-seed{seed}.json"
    server = Server(spans_path)
    try:
        traced = drive(server, programs_hex, order, expected, half)
        stats = server.get("/stats")["service"]
    finally:
        server.stop()
    out.attempted += len(traced.latencies_s)
    out.failed += traced.failed
    snap = json.loads(spans_path.read_text())
    s = snap["self_s"]
    n = len(traced.latencies_s)
    latency_total = sum(traced.latencies_s)
    handler_total = sum(s.get(k, 0.0) for k in (
        "api.server.handler_s", "api.ingest.self_s", "api.service.verify_s",
        "bpf.canon.hash_s", "api.models.render_s",
    ))
    pool = s.get("bpf.verifier.self_s", 0.0) + s.get(
        "bpf.program.compile_s", 0.0)
    server_rows = {
        "api.ingest.self_s": s.get("api.ingest.self_s", 0.0),
        "bpf.canon.hash_s": s.get("bpf.canon.hash_s", 0.0),
        # verify() waits on the verifier pool: that time is the pool
        # threads' verifier and compile rows, not the service's own.
        "api.service.verify_s": s.get("api.service.verify_s", 0.0) - pool,
        "bpf.verifier.self_s": s.get("bpf.verifier.self_s", 0.0),
        "bpf.program.compile_s": s.get("bpf.program.compile_s", 0.0),
        "api.models.render_s": s.get("api.models.render_s", 0.0),
        "api.server.handler_s": s.get("api.server.handler_s", 0.0),
        # client-observed time the server's handler did not cover
        "api.server.wire_s": latency_total - handler_total,
    }
    # WORKERS connections wait at once: a row's seconds are summed over
    # the connections and divided by their number, like the wall time.
    rows = {k: v / WORKERS for k, v in server_rows.items()}
    cache = stats["cache"]
    metrics, table = layer_metrics(rows, traced.wall_s, {
        **oracle_path_counts(snap["counts"], s.get("bpf.verifier.self_s", 0)),
        "api.service.hit_share": cache["hits"] / max(
            1, cache["hits"] + cache["misses"]),
        "api.server.self_ms": 1000.0 * (
            server_rows["api.server.handler_s"]
            + server_rows["api.server.wire_s"]) / max(1, n),
        "trace.units": n,
        "trace.spans": len(snap["spans"]) + snap["dropped"],
        **overhead(load.wall_s / len(load.latencies_s), traced.wall_s, n),
    })
    out.metrics = metrics
    out.notes.append(format_table(
        f"service (connection-seconds / {WORKERS})", table, traced.wall_s))
    out.spans = {"server": snap}
    return out


# -- prove --------------------------------------------------------------------


def run_prove(seed: int, seconds: float, trace: bool) -> Outcome:
    """Bounded soundness proofs of add, sub and mul on the in-repo solver.

    The unit is one set of the ``PROOFS``, re-proving every operator.  The
    operators and widths are fixed: ``seed`` does not change what a proof
    checks, and the solver is deterministic.
    """
    setup = [
        cold_start_s(repro_cli("check-op", "add", "--method", "sat",
                               "--width", "4"))
        for _ in range(SETUP_REPEATS)
    ]
    from repro.verify.sat import encode

    out = Outcome()
    per_op: Dict[str, List[float]] = {op: [] for op, _ in PROOFS}
    tracer: Optional[Tracer] = None
    rows: Dict[str, float] = {}
    extra: Dict[str, float] = {}

    def prove_all(_k: int) -> None:
        for op, width in PROOFS:
            before = tracer.snapshot() if tracer is not None else None
            start = perf_counter()
            report = encode.check_operator_soundness(op, width)
            per_op[op].append(perf_counter() - start)
            out.attempted += 1
            out.failed += not report.sound
            if before is None:
                continue
            # Per-operator rows: the tracer's totals across this proof.
            after = tracer.snapshot()
            for part in ("encode_s", "load_s", "solve_s"):
                key = f"verify.sat.{part}"
                rows[f"{key}.{op}"] = rows.get(f"{key}.{op}", 0.0) + (
                    after["self_s"].get(key, 0.0)
                    - before["self_s"].get(key, 0.0))
            extra[f"verify.sat.vars.{op}"] = report.num_vars
            extra[f"verify.sat.clauses.{op}"] = report.num_clauses
            extra[f"verify.sat.learned.{op}"] = (
                after["counts"].get("verify.sat.learned", 0)
                - before["counts"].get("verify.sat.learned", 0))

    if not trace:
        times, _, _ = run_units(prove_all, seconds)
        out.metrics = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": own_peak_rss_mb(),
            **unit_metrics(times, len(PROOFS) * len(times), sum(times)),
        }
        out.notes.append(f"prove: {len(times)} sets (p50/p99 over "
                         f"{len(times)} sets); " + ", ".join(
                             f"{op}@{w} median "
                             f"{statistics.median(per_op[op]):.3f}s"
                             for op, w in PROOFS))
        return out

    plain, plain_wall, _ = run_units(prove_all, seconds / 2)
    prove_s = {f"prove_s.{op}": statistics.median(per_op[op])
               for op, _ in PROOFS}
    tracer = Tracer()
    undo = layers.install_prove(tracer)
    try:
        traced, wall, _ = run_units(prove_all, seconds / 2)
    finally:
        undo()
    snap = tracer.snapshot()
    metrics, table = layer_metrics(rows, wall, {
        **extra, **prove_s,
        "trace.units": len(PROOFS) * len(traced),
        "trace.spans": len(snap["spans"]) + snap["dropped"],
        **overhead(plain_wall / len(plain), wall, len(traced)),
    })
    out.metrics = metrics
    out.notes.append(format_table("prove", table, wall))
    out.spans = {"prove": snap}
    return out
