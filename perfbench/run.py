#!/usr/bin/env python3
"""Benchmark of the ASIC-vs-custom gap reproduction.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --smoke ...   # short run
    python3 perfbench/run.py --workload all                # each, untraced then traced
    python3 perfbench/run.py --selftest                    # the bench's own checks

It builds bin/repro.exe and perfbench/pbench.exe with dune into
$CARGO_TARGET_DIR (default .bench_build), runs one workload, checks the
program's outputs and prints, as its last stdout line, one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones, timed with tracing off; with --trace 1 a separate
traced run gives the per-layer ones. Earlier stdout lines name every metric
with its unit and record provenance (seed, host, commit, output digest).

Each workload measures whole units of work until --seconds has passed, at
least one: a reproduction (about a minute), a pass over the design set, a
cold + warm cycle.

Workloads (see BENCHMARK.json for why each exists):
  paper_repro  `repro all -x` in a fresh process, checked byte for byte
               against the Output block of EXPERIMENTS.md
  physical     buffering, sizing, placement, STA, pipelining and hold fixing
               over netlists mapped during set-up (pbench physical)
  dse_serve    cold, warm and reopen phases against `repro serve`, closed
               loop over two connections (pbench dse)
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ["paper_repro", "physical", "dse_serve"]

# Every workload reports every end-to-end metric. An "op" is the unit a
# user waits for: one whole reproduction (paper_repro), the closure of one
# design (physical), one DSE request (dse_serve).
END_TO_END = [
    ("wall_s", "s"),  # one fixed unit of work, median over the run
    ("setup_s", "s"),  # median of repeated set-ups
    ("peak_rss_mb", "MB"),  # of the process doing the work
    ("ops_per_s", "1/s"),  # ops over the measured time
    ("p50_ms", "ms"),  # op latency
    ("p99_ms", "ms"),
]

EXPERIMENTS = ["E%d" % i for i in range(1, 12)] + ["X%d" % i for i in range(1, 9)]

PER_LAYER = {
    "paper_repro": [("experiments.%s.wall_s" % e, "s") for e in EXPERIMENTS]
    + [
        ("synth.map.self_s", "s"),
        ("synth.map.calls", "count"),
        ("synth.map.minor_words", "words"),
        ("sta.analyze.self_s", "s"),
        ("sta.analyze.calls", "count"),
        ("synth.sizing.self_s", "s"),
        ("place.anneal.self_s", "s"),
        ("mc.simulate.self_s", "s"),
        ("fpga.lutmap.self_s", "s"),
        ("fpga.gap3.self_s", "s"),
        ("obs.trace_overhead", "ratio"),
    ],
    "physical": [
        ("synth.map_s", "s"),
        ("netlist.verilog_read_s", "s"),
        ("synth.buffer_s", "s"),
        ("synth.sizing_s", "s"),
        ("synth.sizing.moves", "count"),
        ("place.anneal_s", "s"),
        ("place.moves_accepted", "count"),
        ("place.annotate_s", "s"),
        ("sta.analyze_s", "s"),
        ("sta.analyze.calls", "count"),
        ("retime.pipeline_s", "s"),
        ("retime.registers_added", "count"),
        ("synth.hold_fix_s", "s"),
        ("synth.hold_fix.buffers", "count"),
    ]
    + [
        ("netlist.instances.%s" % s, "count")
        for s in ["read", "buffer", "sizing", "place", "annotate", "sta", "pipeline",
                  "hold_fix"]
    ]
    + [("obs.trace_overhead", "ratio")],
    "dse_serve": [
        ("dse.eval.point_us", "us"),
        ("dse.cache.flush_s", "s"),
        ("dse.cache.create_s", "s"),
        ("dse.store.records", "count"),
        ("dse.store.segments", "count"),
        ("dse.store.bytes", "bytes"),
        ("serve.reopen_s", "s"),
        ("serve.ping_us", "us"),
    ]
    + [
        ("serve.%s.%s" % (phase, c), "count")
        for phase in ["cold", "warm"]
        for c in ["evals", "cache_hits", "coalesced", "batches", "max_batch", "errors"]
    ]
    + [("obs.trace_overhead", "ratio")],
}


def all_layers():
    """Union of the per-layer metrics, first-seen order."""
    seen = {}
    for w in WORKLOADS:
        for name, unit in PER_LAYER[w]:
            seen.setdefault(name, unit)
    return list(seen.items())


SMOKE_IDS = ["E1", "E5", "X2"]
OVERHEAD_IDS = ["E2", "E6"]
SETUP_SPAWNS = 9


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------------


def require_sources():
    for rel in ["dune-project", "bin/repro.ml", "lib", "EXPERIMENTS.md", "perfbench/dune"]:
        if not os.path.exists(os.path.join(ROOT, rel)):
            log("no %s under %s: run from the root of a source checkout" % (rel, ROOT))
            sys.exit(2)


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", build_dir, "-j", "2",
           "./bin/repro.exe", "./perfbench/pbench.exe"]
    try:
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        sys.exit(3)
    return (os.path.join(build_dir, "default", "bin", "repro.exe"),
            os.path.join(build_dir, "default", "perfbench", "pbench.exe"))


# --- processes -------------------------------------------------------------


def run_proc(argv, out_path):
    """Run to completion with stdout to [out_path]; (stdout, exit status,
    wall seconds, peak RSS in MB)."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, cwd=ROOT)
        # wait4 rather than p.wait(): it also returns the child's peak RSS
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)  # reaped: tell Popen
    with open(out_path, "rb") as f:
        out = f.read().decode("utf-8", "replace")
    return out, p.returncode, wall, usage.ru_maxrss / 1024.0


def pbench(exe, args, out_path):
    """Run a pbench subcommand; (its result line as JSON, its peak RSS)."""
    out, code, _, rss = run_proc([exe] + args, out_path)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log("pbench %s exited %d" % (args[0], code))
        sys.exit(4)
    return json.loads(lines[-1]), rss


# --- paper_repro ------------------------------------------------------------


def reference_output():
    with open(os.path.join(ROOT, "EXPERIMENTS.md"), encoding="utf-8") as f:
        text = f.read()
    m = re.search(r"^## Output\n\n```\n(.*?)^```", text, re.S | re.M)
    if not m:
        log("EXPERIMENTS.md has no ## Output block")
        sys.exit(5)
    return m.group(1)


def sections(text):
    """Experiment id -> its table text, plus the pass/fail summary."""
    out, summary, cur = {}, [], None
    for line in text.splitlines():
        m = re.match(r"=== ([EX]\d+): ", line)
        if m:
            cur = m.group(1)
            out[cur] = []
        elif re.match(r"[EX]\d+\s+\S", line) or line.startswith("TOTAL:"):
            cur = None
        if cur is not None:
            out[cur].append(line)
        else:
            summary.append(line)
    tables = {k: "\n".join(v).rstrip("\n") for k, v in out.items()}
    return tables, "\n".join(summary).strip("\n")


def paper_gate(stdout, code, ref, ids=None):
    """(attempted, failed): one item per experiment table plus, for the full
    run, the summary with TOTAL n/n; the full run must also match the
    reference byte for byte."""
    want, want_summary = sections(ref)
    got, got_summary = sections(stdout)
    full = ids is None
    ids = list(want) if full else ids
    attempted = len(ids) + full
    if code != 0:
        return attempted, attempted
    failed = sum(1 for i in ids if got.get(i) != want[i])
    failed += len(set(got) - set(ids))
    if full:
        total = re.search(r"^TOTAL: (\d+)/(\d+) ", stdout, re.M)
        if got_summary != want_summary or not total or total.group(1) != total.group(2):
            failed += 1
        elif failed == 0 and stdout != ref:
            failed += 1
    return attempted, min(failed, attempted)


def paper_repro(repro, pbench_exe, work, args):
    ref = reference_output()
    ids = SMOKE_IDS if args.smoke else None
    tally = [0, 0]

    def reproduce(only, extra=()):
        """One fresh process: `repro all -x`, or `repro run ONLY...`."""
        cmd = [repro] + (["run"] + only if only else ["all", "-x"]) + list(extra)
        out, code, wall, rss = run_proc(cmd, os.path.join(work, "repro.out"))
        a, f = paper_gate(out, code, ref, only)
        tally[0] += a
        tally[1] += f
        return out, wall, rss

    if args.trace:
        # one traced reproduction gives the layers; a second, untraced one
        # would take the run past its time limit, so the tracing overhead is
        # measured on OVERHEAD_IDS run both ways
        trace = os.path.join(WORK, "paper_repro.trace.jsonl")
        out, _, _ = reproduce(ids, ["--trace", trace])
        layers = pbench(pbench_exe, ["layers", trace], os.path.join(work, "layers.out"))[0]
        pair = SMOKE_IDS if args.smoke else OVERHEAD_IDS
        untraced = reproduce(pair)[1]
        traced = reproduce(pair, ["--trace", os.path.join(work, "pair.jsonl")])[1]
        metrics = dict(layers["layers"], **{"obs.trace_overhead": traced / untraced})
        return (tally[0] + layers["attempted"], tally[1] + layers["failed"],
                hashlib.sha256(out.encode()).hexdigest(), metrics,
                ["trace written to %s" % os.path.relpath(trace, ROOT)])
    setups = [run_proc([repro, "list"], os.path.join(work, "list.out"))[2]
              for _ in range(SETUP_SPAWNS)]
    walls, rss, outs = [], 0.0, []
    t0 = time.perf_counter()
    # whole reproductions until --seconds has passed: one, at today's speed
    while not walls or time.perf_counter() - t0 < args.seconds:
        out, wall, r = reproduce(ids)
        walls.append(wall)
        outs.append(out)
        rss = max(rss, r)
    if len(set(outs)) != 1:
        tally[1] += 1
        log("two reproductions in one run printed different output")
    lat = [w * 1e3 for w in walls]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "ops_per_s": len(walls) / sum(walls),
        "p50_ms": percentile(lat, 50),
        "p99_ms": percentile(lat, 99),
    }
    return (tally[0], tally[1], hashlib.sha256(outs[0].encode()).hexdigest(), metrics,
            ["%d reproduction(s)" % len(walls)])


def percentile(xs, q):
    """Nearest-rank percentile, the same rule pbench uses."""
    s = sorted(xs)
    k = max(0, min(len(s) - 1, -(-q * len(s) // 100) - 1))
    return s[int(k)]


# --- physical and dse_serve ---------------------------------------------------


def physical(repro, pbench_exe, work, args):
    argv = ["physical", "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        argv.append("--smoke")
    if args.trace:
        argv += ["--trace", os.path.relpath(WORK, ROOT) + "/physical.trace.jsonl"]
    r, rss = pbench(pbench_exe, argv, os.path.join(work, "physical.out"))
    metrics = dict(r["layers"] if args.trace else r["e2e"])
    if not args.trace:
        metrics["peak_rss_mb"] = rss
    return r["attempted"], r["failed"], r["digest"], metrics, r["notes"]


def dse_serve(repro, pbench_exe, work, args):
    argv = ["dse", "--repro", repro, "--work", work, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if args.smoke:
        argv.append("--smoke")
    if args.trace:
        argv.append("--traced")
    r = pbench(pbench_exe, argv, os.path.join(work, "dse.out"))[0]
    metrics = dict(r["layers"] if args.trace else r["e2e"])
    return r["attempted"], r["failed"], r["digest"], metrics, r["notes"]


RUNNERS = {"paper_repro": paper_repro, "physical": physical, "dse_serve": dse_serve}


# --- provenance ----------------------------------------------------------------


def commit_id():
    """The git commit when there is one, else a digest of the source tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return "git:" + subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "_")))
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


# --- one run ---------------------------------------------------------------------


def run_workload(args):
    require_sources()
    repro, pbench_exe = build()
    work = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        attempted, failed, digest, metrics, notes = RUNNERS[args.workload](
            repro, pbench_exe, work, args)
        meta = pbench(pbench_exe, ["meta"], os.path.join(work, "meta.out"))[0]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        wanted = PER_LAYER[args.workload]
        missing = [n for n, _ in wanted if n not in metrics]
        if missing:
            log("per-layer metrics missing: %s" % ", ".join(missing))
            sys.exit(6)
        # the other workloads' layers are not exercised here: they read 0
        units = all_layers()
        metrics = {n: metrics.get(n, 0.0) for n, _ in units}
    else:
        units = END_TO_END
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "host": meta, "commit": commit_id(),
        "digest": digest, "notes": notes,
    }
    print(json.dumps({"provenance": provenance}))
    for name, unit in units:
        print("%-32s %14.6g %s" % (name, metrics[name], unit))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units},
    }
    print(json.dumps(result), flush=True)


# --- self-test ----------------------------------------------------------------------


def selftest():
    """Gate checks on doctored outputs, BENCHMARK.json against this file,
    smoke runs of every workload (twice with one seed: equal digests), and
    the refusal to run outside a source checkout."""
    require_sources()
    problems = []

    def expect(ok, what):
        log(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    ref = reference_output()
    expect(paper_gate(ref, 0, ref) == (20, 0), "paper gate passes the reference output")
    expect(paper_gate(ref.replace("x18.89", "x18.90", 1), 0, ref)[1] >= 1,
           "paper gate fails a changed figure")
    expect(paper_gate(ref, 1, ref)[1] == 20, "paper gate fails a non-zero exit")
    e3 = ref.index("=== E3")
    expect(paper_gate(ref[:e3] + ref[ref.index("=== E4"):], 0, ref)[1] >= 1,
           "paper gate fails a missing experiment")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expect([w["name"] for w in spec["workloads"]] == WORKLOADS, "BENCHMARK.json workloads")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END,
           "BENCHMARK.json end_to_end metrics")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == all_layers(),
           "BENCHMARK.json per_layer metrics")

    me = [sys.executable, os.path.abspath(__file__)]
    for w in WORKLOADS:
        runs = []
        for trace in (0, 0, 1):
            p = subprocess.run(me + ["--workload", w, "--seed", "7", "--seconds", "1",
                                     "--trace", str(trace), "--smoke"],
                               cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            ok = p.returncode == 0 and len(lines) >= 2
            runs.append((json.loads(lines[-1]) if ok else None,
                         json.loads(lines[0])["provenance"]["digest"] if ok else None))
            if not ok:
                sys.stderr.write(p.stderr)
        expect(all(r and r["correct"] and r["failed"] == 0 for r, _ in runs),
               "%s smoke runs pass their correctness gate" % w)
        expect(runs[0][1] is not None and runs[0][1] == runs[1][1],
               "%s: equal seeds give equal output digests" % w)
        expect(runs[0][0] is not None and all(
            runs[0][0]["metrics"][n]["value"] > 0 for n, _ in END_TO_END),
            "%s reports every end-to-end metric, none zero" % w)
        expect(runs[2][0] is not None
               and set(runs[2][0]["metrics"]) == {n for n, _ in all_layers()},
               "%s traced run reports every per-layer metric" % w)

    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "physical",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(p.returncode != 0 and p.stdout.strip() == "",
           "refuses to run without the sources, printing no result")

    log("self-test: %d problem(s)" % len(problems))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"],
                    help="all: every workload, untraced then traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="a short run of the workload")
    ap.add_argument("--selftest", action="store_true", help="run the benchmark's own checks")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    # a printed result is a completed run, correct or not: exit 0
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        for t in (0, 1) if args.workload == "all" else [args.trace]:
            run_workload(argparse.Namespace(**dict(vars(args), workload=w, trace=t)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
