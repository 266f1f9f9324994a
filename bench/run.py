"""Seeded, closed-loop benchmark of the multicolor library and CLI.

One client sends the workload's requests one after another, each as soon as
the previous answer is back, and repeats the whole sequence until at least
``--seconds`` have passed.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports per-layer metrics and the tracing overhead.  Every answer is
checked after the timed phase, and compared with the brute-force oracle
wherever the oracle's branch guard allows.  The last line of standard
output is one JSON object.

    python3 bench/run.py --workload sparse-lists --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn

See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import checker
import corpus as corpus_mod
import reference as ref
from served import Served, encode, fresh_library, stream_answer
from speed import SpeedProbe
from tracer import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_REQUESTS = 200
ORACLE_BRANCHES = 10_000_000  # multicolor.oracle.DEFAULT_MAX_BRANCHES

# layers whose per-layer metrics are read on each workload; a traced run
# that records no span for one of them fails
REQUIRED_LAYERS = {
    "sparse-lists": ("mis", "instance", "cli"),
    "dense-query": ("wmax", "vectors", "oncall", "coloring"),
    "palette": ("coloring", "chromatic", "extension"),
}


@dataclass
class Phase:
    latencies: list[float]  # wall clock
    scaled: list[float]  # at the reference CPU speed (speed.py)
    digests: list[list[bytes]]  # per pass, per request
    first: list  # answers of the first pass

    @property
    def passes(self) -> int:
        return len(self.digests)


def run_passes(served: Served, requests, seconds: float, min_requests: int, tracer=None) -> Phase:
    """Whole passes over the request sequence until both limits are met.

    The first pass's answers are kept for the checker (a stream only as
    its count and digest); of later passes only a digest of each answer.
    An exception is an answer of its own, ``{"error": ...}``.  The speed
    probe runs between requests, outside their timing.
    """
    probe = SpeedProbe()
    spans, digests, first = [], [], []
    start = perf_counter()
    while True:
        answers = []
        for req in requests:
            if tracer is not None:
                tracer.request += 1
            t0 = perf_counter()
            try:
                answer = served.execute(req)
            except (Exception, SystemExit) as exc:
                answer = {"error": f"{type(exc).__name__}: {exc}"}
            spans.append((t0, perf_counter() - t0))
            if not digests:
                first.append(answer)
            answers.append(hashlib.sha256(encode(answer)).digest())
            probe.tick()
        digests.append(answers)
        if perf_counter() - start >= seconds and len(spans) >= min_requests:
            probe.sample()
            latencies = [d for _, d in spans]
            scaled = [d * f for d, f in zip(latencies, probe.factors(spans))]
            return Phase(latencies, scaled, digests, first)


def check_answers(served: Served, corpus, first):
    """Check every kept answer; a stream runs once more to be checked whole.

    Returns the checked answers, the problems found per request and the
    SHA-256 of all answer bytes.
    """
    answers, problems = [], []
    whole = hashlib.sha256()
    for req, answer in zip(corpus.requests, first):
        whole.update(encode(answer))
        found = []
        if req.kind == "stream" and not isinstance(answer, dict):
            timed = answer
            try:
                answer = served.execute(req, keep=True)
            except (Exception, SystemExit) as exc:
                answer = {"error": f"{type(exc).__name__}: {exc}"}
            else:
                if stream_answer(answer) != timed:
                    found.append("stream differs from its timed run")
        if isinstance(answer, dict):
            found.append(f"raised {answer['error']}")
        else:
            found += checker.check(served.cases[req.case], req, answer)
        answers.append(answer)
        problems.append(found)
    return answers, problems, whole.hexdigest()


def count_failures(phases, problems) -> tuple[int, int, list[str]]:
    """Attempted and failed timed requests, with the reasons.

    A timed request fails if the checker rejected its answer or the answer
    differs from the first pass's answer to the same request.
    """
    reference = phases[0].digests[0]
    attempted = failed = 0
    reasons = []
    for phase in phases:
        for answers in phase.digests:
            for i, digest in enumerate(answers):
                attempted += 1
                if problems[i] or digest != reference[i]:
                    failed += 1
                    if len(reasons) < 20:
                        reasons.append(f"request {i}: " + "; ".join(problems[i] or ["answer differs between passes"]))
    return attempted, failed, reasons


def oracle_cross_check(lib, corpus, served: Served, answers) -> tuple[int, list[str]]:
    """Permissibility, chi and coloring sets against multicolor.oracle.

    Only instances under the oracle's branch guard are compared; the count
    of compared instances is returned so the check cannot pass vacuously.
    """
    oracle, limit = lib.oracle, lib.errors.ResourceLimitExceeded
    checked, problems = 0, []
    for req, answer in zip(corpus.requests, answers):
        if isinstance(answer, dict):
            continue  # already failed
        case = served.cases[req.case]
        graph = served.graphs[req.case]
        try:
            if req.kind == "cli" and req.args[0] == "check":
                truth = oracle.brute_colorable(served.instance(req.case, case.weights), ORACLE_BRANCHES)
                agree = (truth is not None) == (answer[0] == 0)
            elif req.kind == "permissible":
                truth = oracle.brute_colorable(served.instance(req.case, req.args[0]), ORACLE_BRANCHES)
                agree = (truth is not None) == (answer is not None)
            elif req.kind == "chromatic":
                agree = oracle.brute_chromatic(graph, req.args[0], ORACLE_BRANCHES) == answer[0]
            elif req.kind == "stream":
                a = req.args[0]
                inst = lib.instance.Instance(graph, lib.instance.uniform_lists(case.n, a), (1,) * case.n)
                agree = oracle.brute_all_colorings(inst, ORACLE_BRANCHES) == set(answer)
            else:
                continue
        except limit:
            continue
        checked += 1
        if not agree:
            problems.append(f"oracle disagrees on {req.kind} {req.case} {req.args}")
    return checked, problems


def corpus_table(corpus, answers) -> list[dict]:
    """Per instance sizes, from the reference computations and the answers."""
    chi = {}
    for req, answer in zip(corpus.requests, answers):
        if req.kind == "chromatic" and not isinstance(answer, dict):
            chi.setdefault(req.case, []).append(answer[0])
    palette = {req.case: req.args[0] for req in corpus.requests if req.kind == "stream"}
    rows = []
    for case in corpus.cases:
        adj = ref.adjacency(case.n, case.edges)
        row = {
            "case": case.name, "n": case.n, "edges": len(case.edges),
            "parent_mis": len(ref.maximal_independent_sets(adj, (1 << case.n) - 1)),
        }
        lists = case.lists
        if lists is None and case.name in palette:
            lists = (frozenset(range(1, palette[case.name] + 1)),) * case.n
        if lists is not None:
            families = ref.color_families(case.n, case.edges, lists)
            vectors = case.wmax or frozenset(ref.demand_vectors(case.n, families))
            row.update(
                colours=len(families),
                color_mis=[len(f) for _, f in sorted(families.items())],
                wmax=len(vectors),
                antichain=len(ref.maxima(vectors)),
            )
        row["chi"] = chi.get(case.name)
        rows.append(row)
    return rows


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


def end_to_end_metrics(latencies: list[float], setup_s: float, rss_mb: float) -> dict:
    lat = sorted(latencies)
    return {
        "throughput_rps": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (nearest_rank(lat, 0.50) * 1e3, "ms"),
        "latency_p95_ms": (nearest_rank(lat, 0.95) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run_workload(args) -> int:
    out_dir = BENCH / "out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run_workload(args, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_phases(served, requests, seconds: float, spans_path: Path, workload: str):
    """Untraced and traced passes in turn; per-layer metrics and problems.

    After one warm-up pass, untraced and traced passes alternate, so both
    kinds see the same drift in machine speed and their difference is the
    tracing overhead.
    """
    tracer = Tracer()
    warm_up = run_passes(served, requests, 0, 1)
    plain, traced, problems = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(run_passes(served, requests, 0, 1))
        tracer.install()
        if not traced:
            problems += [f"untraced binding {b}" for b in tracer.unwrapped()]
        try:
            traced.append(run_passes(served, requests, 0, 1, tracer))
        finally:
            tracer.uninstall()
    with open(spans_path, "w", encoding="utf-8") as fh:
        for i, span in enumerate(tracer.spans):
            if span.request < len(requests):
                fh.write(json.dumps(span.as_dict(i)) + "\n")
    seen = {s.layer for s in tracer.spans}
    problems += [f"layer {layer} recorded no span" for layer in REQUIRED_LAYERS[workload] if layer not in seen]
    speed = sum(sum(p.scaled) for p in traced) / sum(sum(p.latencies) for p in traced)
    metrics = layer_metrics(tracer, len(traced), len(requests), speed)
    per_pass = [sum(sum(p.scaled) for p in phases) / len(phases) for phases in (traced, plain)]
    metrics["trace.overhead"] = (per_pass[0] / per_pass[1] - 1, "ratio")
    metrics["trace.spans"] = (len(tracer.spans) / len(traced), "count")
    return [warm_up] + plain + traced, metrics, problems


def _run_workload(args, out_dir: Path, workdir: Path) -> int:
    clock = {}
    probe = SpeedProbe()
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        lib = fresh_library()
        corpus = corpus_mod.generate(args.workload, args.seed)
        served = Served(lib, corpus, workdir)
        setup_runs.append((t0, perf_counter() - t0))
        probe.sample()
    setup_times = [d for _, d in setup_runs]
    setup_s = median(d * f for d, f in zip(setup_times, probe.factors(setup_runs)))
    requests = corpus.requests
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    t0 = perf_counter()
    if args.trace:
        phases, metrics, problems = traced_phases(
            served, requests, args.seconds, out_dir / f"{stem}.spans.jsonl", args.workload
        )
        wall_clock = {}
    else:
        phases = [run_passes(served, requests, args.seconds, MIN_REQUESTS)]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end_metrics(phases[0].scaled, setup_s, rss_mb)
        wall_clock = end_to_end_metrics(phases[0].latencies, median(setup_times), rss_mb)
        problems = []
    clock["timed_s"] = perf_counter() - t0

    t0 = perf_counter()
    answers, answer_problems, answers_sha = check_answers(served, corpus, phases[0].first)
    attempted, failed, reasons = count_failures(phases, answer_problems)
    clock["check_s"] = perf_counter() - t0
    t0 = perf_counter()
    oracle_checked, oracle_problems = oracle_cross_check(lib, corpus, served, answers)
    clock["oracle_s"] = perf_counter() - t0
    if not oracle_checked:
        problems.append("oracle cross-check compared no instance")
    problems += oracle_problems
    correct = failed == 0 and not problems

    samples = sum(len(p.latencies) for p in phases)
    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    t0 = perf_counter()
    table = corpus_table(corpus, answers)
    clock["table_s"] = perf_counter() - t0
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "requests_per_pass": len(requests), "passes": [p.passes for p in phases],
        "samples": samples, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "answers_sha256": answers_sha,
        "oracle_checked": oracle_checked, "oracle_branches": ORACLE_BRANCHES,
        "setup_runs_s": setup_times, "phase_s": clock, "problems": problems + reasons,
        "metrics": result,
        "wall_clock": {k: {"value": v, "unit": u} for k, (v, u) in wall_clock.items()},
        "latencies_ms": [[x * 1e3 for x in p.latencies] for p in phases],
        "scaled_ms": [[x * 1e3 for x in p.scaled] for p in phases],
        "corpus": table,
    }
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{samples} requests in {report['passes']} passes of {len(requests)}, closed loop, one client")
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.4g}; "
          f"oracle compared {oracle_checked} instances; answers sha256 {answers_sha}")
    if wall_clock:
        print("  times at the reference CPU speed (bench/speed.py), wall clock in brackets")
    for name, (value, unit) in metrics.items():
        raw = f" [{wall_clock[name][0]:.6g}]" if name in wall_clock else ""
        print(f"  {name} {value:.6g} {unit}{raw}")
    for line in problems + reasons:
        print(f"  FAIL {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    worst = 0
    for workload in corpus_mod.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*corpus_mod.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
