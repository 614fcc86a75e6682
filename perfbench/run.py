"""Benchmark of orbk3: seeded closed-loop workloads with exact oracles.

Run from the repository root:

    python3 perfbench/run.py --workload hilb-enum --seed 1 --seconds 25 --trace 0

One client sends one request (one public-API call) at a time.  Every result
is checked exactly; any failed check makes the run exit with code 1 and
report no metrics.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the line
before it records the environment and the measured input mix.

With `--trace 0` the metrics are end to end (throughput, latency, set-up
time, peak memory).  With `--trace 1` the run measures the same requests
untraced and then traced, checks that both give the same results, and
reports per-layer counts and self times per request, plus the tracing
overhead; the spans are written to `perfbench/out/spans-<workload>.tsv`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from tracing import SPANS, Tracer  # noqa: E402
from workloads import FULL, WORKLOADS, Sizes, WrongResult  # noqa: E402

LAYERS = ("polyring", "cyclotomic", "groups", "lattice", "inertia", "hrr", "hilbert", "toystacks", "cli")
SETUP_REPS = 5  # set-up is repeated and its median reported
MIN_REQUESTS = 100  # so that p90 has at least ten samples beyond it
# On a shared 2-vCPU host the speed of the same code drifted by up to 1.8x
# within seconds.  Times are therefore reported at a fixed reference speed:
# a time is multiplied by REFERENCE_S over the time of a fixed Fraction
# computation (`reference_seconds`) measured next to it.
REFERENCE_S = 0.003
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# The one span that only set-up reaches; it reports its set-up total.
SETUP_SPAN = "hilbert.enumerate"
EXTRA_PER_LAYER = {
    "polyring.mul.coeff_products": "products/req",
    "cyclotomic.mul.mean_degree": "degree",
    "cyclotomic.embed.lift_ratio": "ratio",
    "cyclotomic.phi_cache.hit_ratio": "ratio",
    "cyclotomic.zeta_cache.hit_ratio": "ratio",
    "hrr.pairing.sector_terms": "terms/req",
    "hrr.inverses_per_sector_term": "ratio",
    "hilbert.enumerate.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER = {
    **{
        f"{name}.{stat}": unit
        for name in SPANS
        if name != SETUP_SPAN
        for stat, unit in (("calls", "calls/req"), ("self_s", "s/req"))
    },
    **EXTRA_PER_LAYER,
}


def forget_orbk3() -> None:
    """Drop orbk3 from the module cache, so that the next import starts with empty caches."""
    for key in [k for k in sys.modules if k == "orbk3" or k.startswith("orbk3.")]:
        del sys.modules[key]


def import_orbk3() -> SimpleNamespace:
    """Import orbk3 from this checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("orbk3")
    if Path(package.__file__).resolve().parent != SRC / "orbk3":
        raise ImportError(f"orbk3 imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"orbk3.{name}") for name in LAYERS})


def set_up(workload, tracer: Tracer | None = None):
    """Import, input generation and one warm-up pass; returns (modules, seconds)."""
    forget_orbk3()
    gc.collect()  # also frees the modules dropped above, outside the timed part
    start = perf_counter()
    mods = import_orbk3()
    if tracer is not None:
        tracer.install()
    try:
        workload.generate(mods)
        workload.warm_up(mods)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return mods, perf_counter() - start


def _reference_work() -> Fraction:
    """A fixed product of two 24-term rational vectors, as in a Q[x] multiply."""
    xs = [Fraction(k, k + 1) for k in range(1, 25)]
    ys = [Fraction(k + 2, 2 * k + 1) for k in range(1, 25)]
    out = [Fraction(0)] * 47
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            out[i + j] += a * b
    return sum(out)


def reference_seconds() -> float:
    """Time of one run of `_reference_work`, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _reference_work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def to_reference_speed(seconds: float, samples: list[float]) -> float:
    """Scale a time to REFERENCE_S, given reference samples taken around it.

    The median keeps a sample that an interrupt happened to hit from
    rescaling the requests around it.
    """
    return seconds * REFERENCE_S / statistics.median(samples)


@dataclass
class Pass:
    rounds: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # wall seconds per request
    scaled: list = field(default_factory=list)  # the same, at the reference speed
    references: list = field(default_factory=list)  # reference_seconds() samples
    results: list = field(default_factory=list)
    props: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def run_requests(workload, mods, rounds, budget_s: float | None, tracer: Tracer | None = None) -> Pass:
    """Closed loop with one client over whole rounds.

    Stops after the round during which `budget_s` ran out, once at least
    MIN_REQUESTS requests are done; with no budget, runs every round given.
    The reference computation is timed before the first request, after the
    last, and whenever REFERENCE_EVERY_S of requests have run since the last
    sample.  Each latency is scaled by the median of the REFERENCE_WINDOW
    samples before it and the REFERENCE_WINDOW samples after it.
    """
    gc.collect()
    out = Pass()
    out.references.append(reference_seconds())
    segments = []  # per request: index of the reference sample before it
    since_reference = 0.0
    start = perf_counter()
    for rnd in rounds:
        if budget_s is not None and perf_counter() - start >= budget_s and len(out.results) >= MIN_REQUESTS:
            break
        out.rounds.append(rnd)
        state: dict = {}  # results that later requests of the same round use
        for kind, payload in rnd:
            if since_reference >= REFERENCE_EVERY_S:
                out.references.append(reference_seconds())
                since_reference = 0.0
            error = None
            t0 = perf_counter()
            try:
                if tracer is None:
                    raw = workload.execute(mods, kind, payload, state)
                else:
                    raw = tracer.request(len(out.results), kind, workload.execute, mods, kind, payload, state)
            except Exception as exc:  # the run records the failure and goes on
                error = exc
            out.latencies.append(perf_counter() - t0)
            segments.append(len(out.references) - 1)
            since_reference += out.latencies[-1]
            if error is None:
                try:
                    value = workload.check(kind, payload, raw, state)
                except Exception as exc:
                    error = exc
            if error is not None:
                out.failures.append(f"{kind} {str(payload)[:80]}: {type(error).__name__}: {error}")
                value = ("failed", kind)
            out.results.append(value)
            out.props.append((kind, *workload.props(kind, payload)))
    out.references.append(reference_seconds())
    refs, w = out.references, REFERENCE_WINDOW
    out.scaled = [to_reference_speed(t, refs[max(k - w + 1, 0) : k + w + 1]) for t, k in zip(out.latencies, segments)]
    return out


def _bucket_phi(phi) -> str:
    if phi is None:
        return "none"
    return "<=4" if phi <= 4 else "5-16" if phi <= 16 else ">16"


def _bucket_order(order) -> str:
    if order is None:
        return "none"
    return "<=8" if order <= 8 else "9-48" if order <= 48 else "49-96" if order <= 96 else ">96"


def input_shares(props) -> dict:
    """Request shares by type, field degree phi(L) and group order."""
    total = len(props)

    def shares(keys):
        return {k: round(v / total, 4) for k, v in sorted(Counter(keys).items())}

    return {
        "request_type": shares(p[0] for p in props),
        "field_degree": shares(_bucket_phi(p[1]) for p in props),
        "group_order": shares(_bucket_order(p[2]) for p in props),
    }


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
    }


def end_to_end_metrics(p: Pass, setup_times: list[float]) -> dict:
    lat = p.scaled
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_p90": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(tracer: Tracer, requests: int, setup_self_s: float, overhead: float, cache_delta) -> dict:
    out = {}
    for name in SPANS:
        if name != SETUP_SPAN:
            out[f"{name}.calls"] = tracer.calls[name] / requests
            out[f"{name}.self_s"] = tracer.self_s[name] / requests
    c = tracer.counters
    muls, embeds, terms = tracer.calls["cyclotomic.mul"], tracer.calls["cyclotomic.embed"], c["hrr.pairing.sector_terms"]
    out["polyring.mul.coeff_products"] = c["polyring.mul.coeff_products"] / requests
    out["cyclotomic.mul.mean_degree"] = c["cyclotomic.mul.degree_sum"] / muls if muls else 0.0
    out["cyclotomic.embed.lift_ratio"] = c["cyclotomic.embed.lifts"] / embeds if embeds else 0.0
    for key, (hits, misses) in cache_delta.items():
        out[f"cyclotomic.{key}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["hrr.pairing.sector_terms"] = terms / requests
    out["hrr.inverses_per_sector_term"] = c["hrr.pairing.inverses"] / terms if terms else 0.0
    out[f"{SETUP_SPAN}.self_s"] = setup_self_s
    out["trace.overhead_ratio"] = overhead
    return out


def _cache_counts(mods) -> dict:
    """(hits, misses) of the field caches; (0, 0) for a cache the library no longer has."""
    out = {}
    for key, attr in (("phi_cache", "cyclotomic_polynomial"), ("zeta_cache", "_zeta_powers")):
        info = getattr(getattr(mods.cyclotomic, attr, None), "cache_info", None)
        out[key] = info()[:2] if info else (0, 0)
    return out


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, information line)."""
    rounds = (workload.make_round(random.Random(f"{seed}/{k}")) for k in itertools.count())
    info = {"workload": workload.name, "seconds": seconds, "trace": int(trace), "env": environment(seed)}
    if not trace:
        setup_wall, setup_times = [], []
        for _ in range(SETUP_REPS):
            before = [reference_seconds() for _ in range(REFERENCE_WINDOW)]
            mods, elapsed = set_up(workload)
            after = [reference_seconds() for _ in range(REFERENCE_WINDOW)]
            setup_wall.append(elapsed)
            setup_times.append(to_reference_speed(elapsed, before + after))
        measured = run_requests(workload, mods, rounds, seconds)
        attempted, failures = len(measured.results), measured.failures
        metrics = end_to_end_metrics(measured, setup_times)
        units = END_TO_END
        info["setup_s_samples"] = setup_times
        info["wall"] = {
            "ops_per_s": len(measured.latencies) / sum(measured.latencies),
            "op_ms_p50": statistics.median(measured.latencies) * 1e3,
            "setup_s": statistics.median(setup_wall),
        }
    else:
        tracer = Tracer()
        mods, _ = set_up(workload, tracer)
        setup_self_s = tracer.self_s[SETUP_SPAN]
        tracer.reset()
        measured = run_requests(workload, mods, rounds, seconds / 3)
        before = _cache_counts(mods)
        tracer.install()
        try:
            traced = run_requests(workload, mods, measured.rounds, None, tracer)
        finally:
            tracer.uninstall()
        after = _cache_counts(mods)
        delta = {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}
        attempted = len(measured.results) + len(traced.results)
        failures = measured.failures + traced.failures
        mismatched = sum(a != b for a, b in zip(measured.results, traced.results))
        failures += [f"traced result differs from untraced on {mismatched} requests"] * mismatched
        overhead = sum(measured.scaled) / sum(traced.scaled)
        metrics = per_layer_metrics(tracer, len(traced.results), setup_self_s, overhead, delta)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{workload.name}.tsv"
        info["spans"] = tracer.write(spans_file)
        info["spans_file"] = str(spans_file.relative_to(ROOT))
    info["latency_samples"] = len(measured.latencies)
    info["reference_ms"] = [min(measured.references) * 1e3, max(measured.references) * 1e3]
    info["rounds"] = len(measured.rounds)
    info["inputs"] = input_shares(measured.props)
    if failures:
        info["failures"] = sorted(set(failures))[:10]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {} if failures else {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, info


def main(argv=None, sizes: Sizes = FULL) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orbk3" / "__init__.py").is_file():
        print(f"error: no orbk3 sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](sizes)
    try:
        result, info = run(workload, args.seed, args.seconds, bool(args.trace))
    except WrongResult as exc:  # an oracle rejected a set-up result
        print(f"error: set-up check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
