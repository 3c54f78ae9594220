#!/usr/bin/env python3
"""Self-test of the repository benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks, on the current code and with short runs:
  * each workload stays in its regime: serve_hot answers >= 99% of queries
    from the packet cache; serve_scoped answers <= 10% from the packet cache
    and >= 99% of its resolver lookups from the scoped cache, with no upstream
    query and no eviction after warm-up;
  * every output check passes on the unmodified program, and a traced run
    reports every per-layer metric, with the layers it exercises non-zero and
    the campaign's resolver calls charged to the right trial phases;
  * the checks fail the run (nonzero exit, "correct": false) when resolver
    answers are corrupted;
  * with only BENCHMARK.json and perfbench/ present, the benchmark exits
    nonzero without printing a result.
Exits 1 on the first failed expectation, printing what failed.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
SECONDS = "3"


def run(workload, trace="0", extra=(), cwd=ROOT, runner=None):
    command = (runner or RUN) + ["--workload", workload, "--seed", "7", "--seconds", SECONDS,
                                 "--trace", trace, *extra]
    result = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    parsed = {}
    for line in lines:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict):
            parsed.update(obj if "correct" not in obj else {"result": obj})
    return result.returncode, parsed, result.stderr


def expect(condition, what):
    if not condition:
        print(f"selftest: FAILED: {what}")
        sys.exit(1)
    print(f"selftest: ok: {what}")


def check_campaign_attribution(info, metrics):
    """The campaign's remainder is zero by construction, so it cannot show a
    resolver call charged to the wrong trial phase. These checks can: each
    trial resolves its client's own /24 exactly once, every resolver call is
    charged to some phase, and no phase is charged more resolver time than
    its span lasted."""
    def figure(key):
        return float(info.get(key, "nan"))
    phases = ("resolve_cr", "traceroute", "assimilate")
    cr_calls = figure("trace.phase.resolve_cr.resolver_calls_per_trial")
    expect(cr_calls == 1.0, f"campaign: one resolve_cr resolver call per trial ({cr_calls})")
    other = figure("trace.phase.other.resolver_calls_per_trial")
    expect(other == 0.0, f"campaign: every resolver call is charged to a phase ({other} unclaimed per trial)")
    charged = sum(figure(f"trace.phase.{p}.resolver_calls_per_trial") for p in phases)
    stub = metrics["dns.stub.queries_per_trial"]["value"]
    expect(abs(charged - stub) < 1e-3,
           f"campaign: per-phase resolver calls sum to the stub's queries ({charged:.4f} vs {stub:.4f})")
    for p in phases:
        dns_us = figure(f"trace.phase.{p}.resolver_us")
        span_us = figure(f"trace.phase.{p}.span_us")
        expect(0.0 < dns_us <= span_us,
               f"campaign: {p} resolver time {dns_us:.0f} us within its span {span_us:.0f} us")
    trial_self = figure("trace.trial_self_us")
    expect(trial_self >= 0.0, f"campaign: trial self time {trial_self:.0f} us >= 0")
    share = metrics["trace.remainder_share"]["value"]
    print(f"selftest: campaign remainder share {share:.4f} (zero by construction)")


def main():
    # Regime and clean-run checks.
    for workload in ("serve_hot", "serve_scoped", "campaign"):
        code, out, err = run(workload)
        result = out.get("result", {})
        expect(code == 0 and result.get("correct") is True and result.get("failed") == 0,
               f"{workload}: clean run passes its output checks" + ("" if code == 0 else f"\n{err}"))
        if workload == "campaign":
            continue
        regime = out.get("regime", {})
        if workload == "serve_hot":
            expect(regime.get("pcache_hit_share", 0) >= 0.99,
                   f"serve_hot: pcache hit share {regime.get('pcache_hit_share')} >= 0.99")
        else:
            expect(regime.get("pcache_hit_share", 1) <= 0.10,
                   f"serve_scoped: pcache hit share {regime.get('pcache_hit_share')} <= 0.10")
            expect(regime.get("resolver_cache_hit_share", 0) >= 0.99,
                   f"serve_scoped: resolver-cache hit share {regime.get('resolver_cache_hit_share')} >= 0.99")
        expect(regime.get("upstream_per_query", 1) == 0,
               f"{workload}: no upstream query after warm-up")
        expect(regime.get("resolver_cache_evictions", 1) == 0, f"{workload}: no cache eviction")

    # Traced runs: the layers each workload exercises report non-zero figures.
    exercised = {
        "serve_hot": ["netio.batch_fill", "dns.daemon.pcache_hit_ratio", "dns.daemon.server_cpu_us",
                      "dns.daemon.front_cpu_us", "loadgen.cpu_us_per_query", "loadgen.run_p99_ms",
                      "dns.codec.decode_us",
                      "dns.codec.encode_us"],
        "serve_scoped": ["netio.batch_fill", "dns.daemon.server_cpu_us", "dns.daemon.front_cpu_us",
                         "loadgen.run_p99_ms",
                         "dns.codec.decode_us", "dns.codec.encode_us", "cdn.resolver.handle_us",
                         "cdn.resolver.handle_p99_us", "cdn.resolver.calls_per_query",
                         "dns.cache.hit_ratio", "dns.lpm.visits_per_lookup"],
        "campaign": ["dns.codec.decode_us", "dns.codec.encode_us", "cdn.resolver.handle_us",
                     "cdn.resolver.upstream_per_op", "cdn.authoritative.handle_us",
                     "measure.trial_us", "measure.trial.resolve_cr_us", "measure.trial.traceroute_us",
                     "measure.trial.assimilate_us", "measure.trial.measure_us",
                     "dns.stub.queries_per_trial", "measure.campaign.worker_busy_share",
                     "core.sweep.evaluate_ms"],
    }
    for workload, names in exercised.items():
        code, out, err = run(workload, trace="1")
        result = out.get("result", {})
        expect(code == 0 and result.get("correct") is True,
               f"{workload}: traced run passes its output checks" + ("" if code == 0 else f"\n{err}"))
        metrics = result.get("metrics", {})
        for name in names:
            expect(metrics.get(name, {}).get("value", 0) > 0, f"{workload}: traced {name} > 0")
        if workload == "campaign":
            check_campaign_attribution(out.get("info", {}), metrics)

    # Corrupted answers must fail the run.
    for workload in ("serve_hot", "serve_scoped", "campaign"):
        code, out, _ = run(workload, extra=["--corrupt"])
        result = out.get("result", {})
        expect(code != 0 and result.get("correct") is False and result.get("failed", 0) > 0,
               f"{workload}: corrupted answers fail the run")

    # Without the program's sources the benchmark must refuse, quickly.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _ = run("serve_hot", cwd=bare,
                       runner=[sys.executable, os.path.join(bare, "perfbench", "run.py")])
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and "result" not in out, "bare directory: nonzero exit, no result")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
