#!/usr/bin/env python3
"""A/B comparison of two revisions on the repository benchmark (perfbench/).

Usage, from anywhere inside a checkout:

    python3 tools/perf_ab.py --scratch DIR [--parent REV] [--change REV|WORKTREE]
        [--workloads a,b,...] [--pairs N] [--seed-base K] [--json-out FILE]
    python3 tools/perf_ab.py --selftest

Each revision is exported into DIR (`git archive`, or for WORKTREE the
tracked and untracked-but-not-ignored files of the working tree), so the
repository's own checkout and .git are never written to. Each export builds
its own perfbench binary under DIR; a side's build directory is reused only
when it was built from the same source (its id is recorded there), because
the exported files keep their old timestamps and an incremental build would
not see that an older revision replaced a newer one. Then, per workload, N
pairs of `perfbench/run.py --trace 0` runs of BENCHMARK.json's run_seconds
alternate between the two sides (parent first on even pairs, change first
on odd ones), both runs of a pair on the same seed, so both sides see the
host in the same state.

Per end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the spread (IQR / median), the change/parent ratio of the
medians, how many pairs the change won, whether the change's median is
better than the parent's by more than the parent's IQR, and the verdict
against the metric's bound.

Exit status: 1 when a run failed or a metric is worse past its bound while
the parent's own spread of that metric is within the bound; otherwise 2
when some metric is refused because the parent's own spread is wider than
its bound (the host was too noisy to judge that metric), or on a usage
error; otherwise 0.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = "WORKTREE"


def git(*args, cwd=ROOT, capture=True):
    return subprocess.run(["git", "-C", cwd, *args], check=True, capture_output=capture,
                          text=capture).stdout


def export(rev, dest):
    """Materializes `rev` (a git revision or WORKTREE) at `dest`; returns its id."""
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    if rev == WORKTREE:
        # The id is a digest of the copied paths and contents, so two exports
        # of different working trees never share an id.
        digest = hashlib.sha256()
        listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for path in sorted(filter(None, listed.split("\0"))):
            source = os.path.join(ROOT, path)
            if not os.path.isfile(source):
                continue  # deleted in the working tree
            os.makedirs(os.path.dirname(os.path.join(dest, path)), exist_ok=True)
            shutil.copy2(source, os.path.join(dest, path))
            digest.update(path.encode() + b"\0")
            with open(source, "rb") as handle:
                digest.update(handle.read())
        return "worktree-" + digest.hexdigest()[:16]
    commit = git("rev-parse", "--verify", rev + "^{commit}").strip()
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit], check=True,
                       stdout=archive)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            # The "data" filter (where this Python has it) refuses absolute
            # paths and links that leave dest.
            if hasattr(tarfile, "data_filter"):
                tar.extractall(dest, filter="data")
            else:
                tar.extractall(dest)
    return commit


def prepare_build(target, source_id):
    """Empties `target` unless it was built from `source_id`; records the id."""
    stamp = os.path.join(target, "perf_ab_source")
    try:
        with open(stamp) as handle:
            same = handle.read().strip() == source_id
    except OSError:
        same = False
    if not same and os.path.isdir(target):
        shutil.rmtree(target)
    os.makedirs(target, exist_ok=True)
    with open(stamp, "w") as handle:
        handle.write(source_id + "\n")
    return same


def exit_status(results, failed):
    """The process exit status for {workload: {metric: compare()}}; see the module doc."""
    verdicts = [r for metrics in results.values() for r in metrics.values()]
    if failed or any(r["worse_past_bound"] and not r["refused"] for r in verdicts):
        return 1
    return 2 if any(r["refused"] for r in verdicts) else 0


def run_once(side, workload, seed, seconds):
    """One `run.py --trace 0` run; returns (ok, {metric: value}, stderr tail)."""
    env = dict(os.environ, CARGO_TARGET_DIR=side["target"])
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", "0"]
    result = subprocess.run(command, cwd=side["dir"], env=env, capture_output=True, text=True)
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    try:
        final = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in final["metrics"].items()}
    except (IndexError, KeyError, TypeError, json.JSONDecodeError):
        metrics = {}
    ok = result.returncode == 0 and bool(metrics)
    return ok, metrics, result.stderr.strip().splitlines()[-3:]


def quartiles(values):
    """(q1, median, q3) as perfbench's README computes its spreads."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(metric, parent, change):
    """Verdict for one metric over paired samples (lists of equal length)."""
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    p_spread = (p3 - p1) / pm if pm else 0.0
    c_spread = (c3 - c1) / cm if cm else 0.0
    # Relative change of the median in the metric's "better" direction.
    gain = ((cm - pm) / pm if pm else 0.0) * (1 if higher else -1)
    wins = sum(1 for p, c in zip(parent, change) if (c > p if higher else c < p))
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3, "spread": p_spread},
        "change": {"median": cm, "q1": c1, "q3": c3, "spread": c_spread},
        "ratio": cm / pm if pm else float("nan"),
        "gain": gain,
        "wins": wins,
        "pairs": len(parent),
        "beyond_parent_iqr": gain > 0 and abs(cm - pm) > (p3 - p1),
        "bound": bound,
        "refused": p_spread > bound,
        "change_spread_past_bound": c_spread > bound,
        "worse_past_bound": gain < -bound,
    }


def report(workload, results):
    def side(stats):
        return (f"{stats['median']:.5g} [{stats['q1']:.5g}, {stats['q3']:.5g}] "
                f"({stats['spread']:.3f})")

    print(f"\n== {workload}")
    print(f"{'metric':<18}{'parent median [q1, q3] (spread)':<46}"
          f"{'change median [q1, q3] (spread)':<46}{'chg/par':>8}{'wins':>7}  verdict")
    for name, r in results.items():
        verdict = []
        if r["refused"]:
            verdict.append(f"REFUSED: parent spread {r['parent']['spread']:.3f} "
                           f"> bound {r['bound']}")
        if r["worse_past_bound"]:
            verdict.append(f"WORSE past bound {r['bound']}")
        if r["change_spread_past_bound"]:
            verdict.append("change spread past bound")
        if not verdict:
            verdict.append(f"within bound {r['bound']}")
        if r["beyond_parent_iqr"]:
            verdict.append("better beyond parent IQR")
        print(f"{name:<18}{side(r['parent']):<46}{side(r['change']):<46}{r['ratio']:>8.3f}"
              f"{r['wins']:>4}/{r['pairs']:<2}  " + "; ".join(verdict))


def selftest():
    """Checks the statistics and verdicts on fixed samples; runs nothing."""
    higher = {"better": "higher", "bound": 0.24}
    lower = {"better": "lower", "bound": 0.24}
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8]
    faster = [v * 1.3 for v in steady]
    r = compare(higher, steady, faster)
    assert r["wins"] == 8 and r["beyond_parent_iqr"] and not r["worse_past_bound"], r
    assert abs(r["ratio"] - 1.3) < 1e-9 and not r["refused"], r
    r = compare(lower, steady, faster)  # a latency 1.3x higher: worse past 0.24
    assert r["wins"] == 0 and r["worse_past_bound"] and not r["beyond_parent_iqr"], r
    noisy = [50.0, 150.0, 60.0, 140.0, 55.0, 145.0, 100.0, 100.0]
    r = compare(higher, noisy, steady)
    assert r["refused"] and not r["worse_past_bound"], r
    r = compare(higher, steady, [v * 1.005 for v in steady])  # inside the IQR
    assert not r["beyond_parent_iqr"] and not r["worse_past_bound"], r
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    # A regression on a steady metric is exit 1 even when another is refused.
    refused = compare(higher, noisy, steady)
    slower = compare(higher, steady, [v * 0.7 for v in steady])
    within = compare(higher, steady, steady)
    assert exit_status({"a": {"x": refused, "y": slower}}, False) == 1
    assert exit_status({"a": {"x": refused}, "b": {"y": within}}, False) == 2
    assert exit_status({"a": {"x": compare(higher, noisy, [v * 0.5 for v in noisy])}},
                       False) == 2  # worse, but the parent was too noisy to judge
    assert exit_status({"a": {"y": within}}, False) == 0
    assert exit_status({"a": {"y": within}}, True) == 1
    with tempfile.TemporaryDirectory() as scratch:
        target = os.path.join(scratch, "build")
        assert not prepare_build(target, "rev-a")
        open(os.path.join(target, "object"), "w").close()
        assert prepare_build(target, "rev-a")
        assert os.path.exists(os.path.join(target, "object"))
        assert not prepare_build(target, "rev-b")  # another source: built afresh
        assert not os.path.exists(os.path.join(target, "object"))
    print("perf_ab selftest: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scratch", help="directory for the exports, builds and results")
    parser.add_argument("--parent", default="HEAD", help="git revision (default HEAD)")
    parser.add_argument("--change", default=WORKTREE,
                        help="git revision, or WORKTREE for the working tree (default)")
    parser.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=101)
    parser.add_argument("--json-out", help="write every sample and verdict here")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.scratch or args.pairs < 1:
        parser.error("--scratch is required and --pairs must be >= 1")

    scratch = os.path.abspath(args.scratch)
    sides = {}
    for label, rev in (("parent", args.parent), ("change", args.change)):
        side = {"dir": os.path.join(scratch, label),
                "target": os.path.join(scratch, label + "-build")}
        side["id"] = export(rev, side["dir"])
        reused = prepare_build(side["target"], side["id"])
        sides[label] = side
        print(f"{label}: {rev} = {side['id']} ({'reusing' if reused else 'fresh'} build)",
              flush=True)
    with open(os.path.join(sides["parent"]["dir"], "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = float(spec["run_seconds"])

    # The first run of each side builds its binary; do it outside the pairs.
    for label, side in sides.items():
        ok, _, tail = run_once(side, workloads[0], args.seed_base, 1.0)
        if not ok:
            print(f"{label}: build or warm-up run failed: {tail}", file=sys.stderr)
            return 1

    record = {"parent": sides["parent"]["id"], "change": sides["change"]["id"],
              "seconds": seconds, "workloads": {}}
    failed = False
    for workload in workloads:
        samples = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            for label in order:
                ok, metrics, tail = run_once(sides[label], workload, seed, seconds)
                if not ok:
                    print(f"{workload} seed {seed} {label}: run failed: {tail}", file=sys.stderr)
                    failed = True
                pair[label] = metrics if ok else None
            if pair["parent"] is not None and pair["change"] is not None:
                for label in samples:
                    samples[label].append(pair[label])
            print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}) done", flush=True)
        if not samples["parent"]:
            continue
        results = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            results[name] = compare(metric, [s[name] for s in samples["parent"]],
                                    [s[name] for s in samples["change"]])
        report(workload, results)
        record["workloads"][workload] = {"samples": samples, "results": results}

    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    status = exit_status({w: r["results"] for w, r in record["workloads"].items()}, failed)
    if status == 2:
        print("\nperf_ab: REFUSED: the parent's own spread exceeds a bound", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
