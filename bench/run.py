"""gentlekit benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload analyze-ladder --seed 1 --seconds 25 --trace 0

Run from a checkout: the program under test is the gentlekit package in
src/ next to this directory, never an installed copy.  The run generates
its inputs from the seed, times set-up in fresh processes, then runs whole
rounds of operations (every input once per round, one caller, closed loop)
until --seconds have passed, checks every completed operation's output
against checks.py and prints, as its last line,
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 gentlekit is wrapped by
tracing.Tracer and the metrics are per layer, per round.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_SAMPLES = 9


def fail(msg):
    log(msg)
    sys.exit(2)


def use_checkout_source():
    if not os.path.isfile(os.path.join(SRC, "gentlekit", "__init__.py")):
        fail("no gentlekit source under %s; run from a checkout" % SRC)
    sys.path.insert(0, SRC)


def log(msg):
    sys.stderr.write("bench: %s\n" % msg)


class Run:
    """Rounds of operations over one workload's loaded inputs."""

    def __init__(self, wl, inputs, items):
        self.wl = wl
        self.inputs = inputs
        self.items = items
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.first = [None] * len(inputs)      # first completed output
        self.completed_of = [0] * len(inputs)
        self.known_failures = 0
        self.problems = []                     # (input key, reason)
        self.rounds = 0
        self.wall = 0.0

    def one_round(self, per_op=None):
        wl = self.wl
        start = perf_counter()
        for k, item in enumerate(self.items):
            inp = self.inputs[k]
            before = per_op.before() if per_op else None
            t0 = perf_counter()
            try:
                out = wl.op(item)
                reason = None
            except Exception as exc:        # a failed op is recorded, not fatal
                out, reason = None, "%s: %s" % (type(exc).__name__, exc)
            dt = perf_counter() - t0
            self.attempted += 1
            if reason is None:
                reason = wl.failure(out)
            if reason is not None:
                self.failed += 1
                if wl.known_failure(inp, reason):
                    self.known_failures += 1
                else:
                    self.problems.append((inp.key, reason))
                continue
            if self.first[k] is None:
                self.first[k] = out
            elif out != self.first[k]:
                self.failed += 1
                self.problems.append((inp.key, "output differs between rounds"))
                continue
            self.completed_of[k] += 1
            self.latencies.append(dt)
            if per_op:
                per_op.after(before, inp)
        elapsed = perf_counter() - start
        self.rounds += 1
        self.wall += elapsed
        return elapsed

    def rounds_for(self, seconds, step=None):
        """Repeat a step (one round by default) as often as brings the loop
        closest to `seconds`, at least once; return the number of steps."""
        step = step or self.one_round
        start = perf_counter()
        done = 0
        while True:
            step()
            done += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / done / 2 >= seconds:
                return done

    def check_outputs(self):
        for k, out in enumerate(self.first):
            if out is None:
                continue
            try:
                self.wl.check(self.inputs[k], out)
            except Exception as exc:        # every kind of check failure counts
                self.failed += self.completed_of[k]
                self.problems.append((self.inputs[k].key, "check failed: %s: %s"
                                      % (type(exc).__name__, exc)))

    @property
    def completed(self):
        return len(self.latencies)


def setup_seconds(workload, workdir):
    """Median over fresh processes of importing gentlekit and loading every
    input (see setup_probe.py)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "setup_probe.py"), workload,
             workdir],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            fail("set-up probe failed: %s" % proc.stderr.strip())
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def end_to_end(run, setup_s):
    lat = sorted(run.latencies)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (run.completed / run.wall, "ops/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    use_checkout_source()
    import gentlekit
    if not os.path.abspath(gentlekit.__file__).startswith(SRC + os.sep):
        fail("imported gentlekit from %s, not from %s" % (gentlekit.__file__, SRC))
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail("unknown workload %r; choose from %s"
             % (args.workload, ", ".join(workloads.WORKLOADS)))
    wl = workloads.WORKLOADS[args.workload]

    inputs = wl.make_inputs(args.seed)
    workdir = os.path.join(WORK, "%s-%d-%d"
                           % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        with open(os.path.join(workdir, "inputs.json"), "w") as fh:
            json.dump([inp.to_json() for inp in inputs], fh)
        wl.write(inputs, workdir)
        setup_s = None if args.trace else setup_seconds(args.workload, workdir)
        items = wl.load(inputs, workdir)
        run = Run(wl, inputs, items)
        if args.trace:
            metrics = tracing.traced_metrics(run, args.seconds, os.path.join(
                WORK, "traces", "%s-seed%d.tsv" % (args.workload, args.seed)))
        else:
            run.rounds_for(args.seconds)
        run.check_outputs()
        if not args.trace:
            metrics = end_to_end(run, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, reason in run.problems[:20]:
        log("FAILED %s: %s" % (key, reason))
    log("%s seed %d: %d rounds of %d inputs, %d ops attempted, %d failed "
        "(%d as known), %.1f s in the loop"
        % (args.workload, args.seed, run.rounds, len(inputs), run.attempted,
           run.failed, run.known_failures, run.wall))
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
