#!/usr/bin/env python3
"""The mmc benchmark.

Drives the built `mmc` CLI in a closed loop (one client, one invocation
in flight, at most two threads per invocation), checks the output of
every operation, and prints the end-to-end metrics; with `--trace 1` it
runs every operation a second time through `pb trace` in a fresh process
and prints the per-layer metrics instead.  See perfbench/README.md.

    python3 perfbench/run.py --workload dev-loop --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of the repository.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("dev-loop", "paper-seq", "paper-par")
KINDS = ("emit", "exec_cold", "exec_warm", "run", "run_par")
GOLDEN = os.path.join("test", "golden")
MMC = os.path.join("_build", "default", "bin", "mmc.exe")
PB = os.path.join("_build", "default", "perfbench", "pb.exe")
TMP_PARENT = ".perfbench_tmp"

# At most two threads per invocation (the benchmark machine has 2 cores).
PAR = max(1, min(2, len(os.sched_getaffinity(0))))

# The paper's 721 x 1440 grid (§IV) with a short time axis: 4 steps is
# the shortest on which fig8's trough signature keeps a rise, a fall and
# a rise.  SAMPLE_ROWS seeded rows are the interpreter's share of it.
LAT, LON, STEPS = 721, 1440, 4
SAMPLE_ROWS = 4
PAPER = ("eddy_energy", "fig1_temporal_mean", "fig8_scoring")
EDDY_EXTENTS = ("int m = 48;", "int n = 48;", "int p = 64;")

# eddy_energy synthesizes its own data, so its grid result does not
# depend on the seed.  Computed once by the interpreter (`pb ref`, ~35 s
# per thread count) at both thread counts, which agree:
#   printf '1\tEDDY.mc\tDIR\n2\tEDDY.mc\tDIR\n' | pb ref
EDDY_GRID_REF = {(721, 1440, 4): ("420907", 0)}

# Wall time of one round on the benchmark machine (2-core Xeon); the
# number of rounds in a run is --seconds over this, rounded.
ROUND_SECONDS = {"dev-loop": 21.0, "paper-seq": 18.0, "paper-par": 23.0}
DEV_ANCHOR = "eddy_energy"

OP_TIMEOUT = 120
SETUP_REPEATS = {"dev-loop": 5, "paper-seq": 3, "paper-par": 3}
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark itself could not run (missing tree, failed build,
    bad reference): exit non-zero without a result line."""


# --- processes -------------------------------------------------------------

ENV = dict(os.environ)
_children = set()  # processes in flight, killed with their groups on exit


def spawn(argv, stdin=False):
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV,
        start_new_session=True)
    _children.add(proc)
    return proc


def finish(proc, stdin=None, timeout=OP_TIMEOUT):
    """Wait for a spawned process; return (exit code, stdout, stderr)."""
    try:
        out, err = proc.communicate(stdin, timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += b"\nbenchmark: killed after %d s" % timeout
    finally:
        _children.discard(proc)
    return proc.returncode, out, err


def call(argv, stdin=None, timeout=OP_TIMEOUT):
    """Run argv to completion in its own process group; return
    (exit code, stdout, stderr, wall seconds, children's CPU seconds)."""
    ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    code, out, err = finish(spawn(argv, stdin is not None), stdin, timeout)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    return code, out, err, wall, cpu


def kill_children():
    for proc in list(_children):
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.wait()


# --- the measurement helper ------------------------------------------------

def quantiles(xs):
    """(q1, median, q3) of a non-empty sample."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def p90(xs):
    return statistics.quantiles(xs, n=10)[-1] if len(xs) >= P90_MIN_SAMPLES else None


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


class Recorder:
    """Every op of every workload goes through [op]: it runs the command,
    checks the output, counts attempts and failures, and keeps the wall
    time of each successful timed op per (kind, program)."""

    def __init__(self):
        self.wall = collections.defaultdict(list)  # (kind, prog) -> [ms]
        self.cpu = collections.defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def op(self, kind, prog, argv, check, timed=True):
        code, out, err, wall, cpu = call(argv)
        self.attempted += 1
        problem = ("exit code %d: %s" % (code, err.decode(errors="replace")[-400:])
                   if code != 0 else check(out, err))
        if problem:
            self.failed += 1
            self.failures.append("%s %s: %s" % (kind, prog, problem))
            return None
        if timed:
            self.wall[(kind, prog)].append(wall * 1e3)
            self.cpu[(kind, prog)].append(cpu * 1e3)
        return out

    def kind_samples(self, kind):
        return [x for (k, _), xs in self.wall.items() if k == kind for x in xs]

    def per_program(self, kind, stat=statistics.mean, table=None):
        table = self.wall if table is None else table
        return {p: stat(xs) for (k, p), xs in table.items() if k == kind and xs}

    def summary(self, kind):
        """mean: geometric mean over programs of each program's mean, so
        every program weighs the same whatever the draw.  This is the
        gated metric.  One process's time on the benchmark machine is
        bimodal (phases of the host a few seconds long, ~115 vs ~165 ms
        for an emit), and a median of a two-mode sample jumps between the
        modes as their mix shifts, where a mean moves in proportion:
        across seeds the IQR/median of emit's p50 was 0.18 and of its
        mean 0.11.  p50 (the same over each program's median), the pooled
        quartiles and p90 are reported beside it with the sample count."""
        means = self.per_program(kind)
        xs = self.kind_samples(kind)
        if not means:
            return None
        q1, q2, q3 = quantiles(xs)
        return {"mean": geomean(list(means.values())),
                "p50": geomean(list(self.per_program(kind, statistics.median).values())),
                "n": len(xs), "programs": len(means), "pooled_q1": q1,
                "pooled_median": q2, "pooled_q3": q3, "p90": p90(xs)}


def closed_loop(rounds, warmup=()):
    """Run the warmup steps untimed, then every step of [rounds] (lists of
    steps; a step is a list of ops, callables taking timed=bool, that
    runs as a unit).  Returns the wall time of the timed part."""
    for step in warmup:
        for op in step:
            op(timed=False)
    t0 = time.perf_counter()
    for steps in rounds:
        for step in steps:
            for op in step:
                op(timed=True)
    return time.perf_counter() - t0


# --- checks ----------------------------------------------------------------

def read(path):
    with open(path, "rb") as f:
        return f.read()


def mmat_lines(data):
    """Header extents and element lines of an MMAT1 matrix file."""
    rank = int.from_bytes(data[7:11], "big")
    dims = [int.from_bytes(data[11 + 4 * i:15 + 4 * i], "big") for i in range(rank)]
    return dims, data[11 + 4 * rank:].split(b"\n")


def result_check(ref, outputs=(), out_dir=None, live_race=None):
    """Checks a `result:` line against the reference value, rejects a
    "still live" warning, and compares each output matrix: [outputs] is
    a list of (file name, comparison) pairs.

    A native run on more than one thread passes [live_race]: there the
    runtime's live count is a plain `int` updated inside OpenMP regions
    (ROADMAP item 1), so a lost update can leave it positive although
    every allocation was freed.  Its warning is handed to [live_race],
    which records it as that known defect, instead of failing the op;
    the value and every output matrix are still checked bit for bit, and
    the same program on one thread (paper-seq) still fails on it."""
    value, _live = ref

    def check(out, err):
        if out != b"result: %s\n" % value.encode():
            return "stdout %r, reference %r" % (out[:200], value)
        if b"still live" in err:
            warning = err.decode(errors="replace")[-200:].strip()
            if live_race is None:
                return "still-live warning: %s" % warning
            live_race(warning)
        for name, compare in outputs:
            path = os.path.join(out_dir, name)
            if not os.path.exists(path):
                return "no output %s" % name
            problem = compare(read(path))
            if problem:
                return "%s: %s" % (name, problem)
        return None
    return check


def same_bytes(expected):
    return lambda data: None if data == expected else "differs from the reference"


def same_rows(ref_data, rows, full_dims):
    """The full-grid output agrees with the interpreter's output for the
    sampled rows, line for line (every element bit for bit)."""
    ref_dims, ref_lines = mmat_lines(ref_data)
    width = 1
    for d in ref_dims[1:]:
        width *= d

    def compare(data):
        if not data.startswith(b"MMAT1\n"):
            return "not an MMAT1 matrix file"
        dims, lines = mmat_lines(data)
        if dims != full_dims:
            return "extents %s, expected %s" % (dims, full_dims)
        for i, r in enumerate(rows):
            if lines[r * width:(r + 1) * width] != ref_lines[i * width:(i + 1) * width]:
                return "row %d differs from the interpreter" % r
        return None
    return compare


def clear_outputs(data_dir, names):
    for name in names:
        path = os.path.join(data_dir, name)
        if os.path.exists(path):
            os.remove(path)


# --- workloads ---------------------------------------------------------------

def references(jobs):
    """Interpreter references, one `pb ref` process for all jobs:
    [(threads, source, data dir)] -> [(value, live)]."""
    text = "".join("%d\t%s\t%s\n" % j for j in jobs).encode()
    code, out, err, _, _ = call([PB, "ref"], stdin=text, timeout=170)
    if code != 0:
        raise BenchError("pb ref failed: %s" % err.decode(errors="replace")[-800:])
    refs = []
    for line, job in zip(out.decode().splitlines(), jobs):
        fields = line.split("\t")
        if fields[0] != "ok":
            raise BenchError("interpreter reference failed for %s: %s" % (job[1], line))
        refs.append((fields[1], int(fields[2])))
    if len(refs) != len(jobs):
        raise BenchError("pb ref answered %d of %d jobs" % (len(refs), len(jobs)))
    return refs


def copy_inputs(src_dir, dst_dir):
    if os.path.isdir(src_dir):
        shutil.copytree(src_dir, dst_dir)
    else:
        os.makedirs(dst_dir)


def new_outputs(data_dir, input_names):
    return sorted(set(os.listdir(data_dir)) - set(input_names))


class Workload:
    """A set of programs and their inputs, plus the ops run on them.
    [setup] builds the inputs and fills the binary cache under a fresh
    directory and is what setup_s times; [prepare] computes the
    interpreter references, untimed; [round] draws one seeded round of
    the closed-loop schedule; [where] names the source, data directory
    and binary cache an op uses."""

    def __init__(self, rng, seed):
        self.rng = rng
        self.seed = seed
        self.expected_emit = {}
        self.emit_bytes = {}
        self.live_races = []  # still-live warnings of parallel native runs

    def argv(self, kind, p):
        src, data, cache = self.where(kind, p)
        t = self.op_threads(kind)
        if kind == "emit":
            return [MMC, "emit"] + (["--auto-par"] if t > 1 else []) + [src]
        if kind in ("exec_cold", "exec_warm"):
            return [MMC, "exec", "--threads", str(t), "--data-dir", data,
                    "--cache-dir", cache, src]
        return [MMC, "run", "--threads", str(t), "--data-dir", data, src]

    def before(self, kind, p, traced=False):
        """Remove the outputs an op must write, and empty a cold op's cache."""
        _, data, cache = self.where(kind, p, traced)
        clear_outputs(data, [n for n, _ in self.reference(kind, p)[1]])
        if kind == "exec_cold":
            shutil.rmtree(cache, ignore_errors=True)

    def warmup(self):
        return []

    def check(self, kind, p):
        if kind == "emit":
            expected = self.expected_emit[p]
            return lambda out, err: (None if out == expected
                                     else "emitted C differs from the golden file")
        ref, outputs = self.reference(kind, p)
        racy = kind in ("exec_cold", "exec_warm") and self.op_threads(kind) > 1
        live_race = ((lambda warning: self.live_races.append("%s %s: %s" % (kind, p, warning)))
                     if racy else None)
        return result_check(ref, outputs, self.where(kind, p)[1], live_race)


class DevLoop(Workload):
    """The corpus programs at their test sizes, each through emit, cold
    exec, warm exec, run and run --threads 2."""

    def __init__(self, rng, seed):
        super().__init__(rng, seed)
        self.progs = sorted(f[:-3] for f in os.listdir(GOLDEN) if f.endswith(".mc"))
        if len(self.progs) < 25:
            raise BenchError("corpus has only %d programs" % len(self.progs))
        for p in self.progs:
            self.expected_emit[p] = read(os.path.join(GOLDEN, p + ".seq.c"))

    def setup(self, d):
        self.dir = d
        code, _, err, _, _ = call([PB, "gen-dev", os.path.join(d, "inputs")])
        if code != 0:
            raise BenchError("pb gen-dev failed: %s" % err.decode(errors="replace"))

    def prepare(self):
        inputs = os.path.join(self.dir, "inputs")
        jobs, keys = [], []
        for t in sorted({1, PAR}):
            for p in self.progs:
                ref_dir = os.path.join(self.dir, "ref%d" % t, p)
                copy_inputs(os.path.join(inputs, p), ref_dir)
                jobs.append((t, os.path.join(GOLDEN, p + ".mc"), ref_dir))
                keys.append((t, p))
        self.refs = {}
        for (t, p), ref in zip(keys, references(jobs)):
            data = os.path.join(self.dir, "data", p)
            if not os.path.exists(data):
                copy_inputs(os.path.join(inputs, p), data)
            ref_dir = os.path.join(self.dir, "ref%d" % t, p)
            outputs = [(n, same_bytes(read(os.path.join(ref_dir, n))))
                       for n in new_outputs(ref_dir, os.listdir(data))]
            self.refs[(t, p)] = (ref, outputs)
            golden = os.path.join(GOLDEN, p + ".out")
            if t == 1 and os.path.exists(golden) and read(golden).decode() != ref[0]:
                raise BenchError("interpreter disagrees with %s" % golden)

    def op_threads(self, kind):
        return PAR if kind == "run_par" else 1

    def where(self, kind, p, traced=False):
        cache = os.path.join(self.dir, ("cache-trace-" if traced else "cache-") + p)
        return os.path.join(GOLDEN, p + ".mc"), os.path.join(self.dir, "data", p), cache

    def reference(self, kind, p):
        return self.refs[(self.op_threads(kind), p)]

    def round(self):
        """One round over a seeded permutation of the corpus.  Every
        program is emitted once and gets one more op kind, rotating from
        a seeded offset, so op kinds interleave and every kind meets every
        program across seeds.  eddy_energy, the one corpus program whose
        interpretation is not negligible, gets every kind in every round:
        a program set without it would shift the run figures by 20%."""
        order = self.rng.sample(self.progs, len(self.progs))
        offset = self.rng.randrange(3)
        steps = []
        for j, p in enumerate(order):
            more = [[("exec_cold", p), ("exec_warm", p)], [("run", p)], [("run_par", p)]]
            steps.append([("emit", p)])
            steps += more if p == DEV_ANCHOR else [more[(j + offset) % 3]]
        return steps

    def warmup(self):
        p = self.rng.choice(self.progs)
        return [[(k, p)] for k in KINDS]


def eddy_source(text, lat):
    """eddy_energy (or its emitted C) with the extents lat x LON x STEPS."""
    for old, new in zip(EDDY_EXTENTS, (lat, LON, STEPS)):
        text = text.replace(old, "%s %d;" % (old.rsplit(" ", 1)[0], new))
    return text


class Paper(Workload):
    """eddy_energy, fig1_temporal_mean and fig8_scoring on the 721 x 1440
    grid: warm exec on the full grid, the other kinds on the row sample
    (emit on the grid source)."""

    def __init__(self, rng, seed, threads):
        super().__init__(rng, seed)
        self.threads = threads
        self.progs = list(PAPER)
        self.rows = sorted(rng.sample(range(LAT), SAMPLE_ROWS))
        suffix = ".par.c" if threads > 1 else ".seq.c"
        for p in self.progs:
            self.expected_emit[p] = read(os.path.join(GOLDEN, p + suffix))
        self.expected_emit["eddy_energy"] = eddy_source(
            self.expected_emit["eddy_energy"].decode(), LAT).encode()

    def setup(self, d):
        """Generate the grid cubes and fill the binary cache the grid ops
        hit.  eddy_energy's extents are in its source, so it fills the
        cache on the grid, alongside the generation; fig1 and fig8
        compile to the same C whatever their input, so they fill it on
        the row sample."""
        self.dir = d
        src = read(os.path.join(GOLDEN, "eddy_energy.mc")).decode()
        for name, lat in (("eddy_energy", LAT), ("eddy_energy.sample", SAMPLE_ROWS)):
            os.makedirs(os.path.join(d, name))
            with open(os.path.join(d, name + ".mc"), "w") as f:
                f.write(eddy_source(src, lat))
        for name in ("fig1_temporal_mean", "fig8_scoring"):
            for suffix in (".mc", ".sample.mc"):
                shutil.copy(os.path.join(GOLDEN, name + ".mc"), os.path.join(d, name + suffix))

        def fill(p, data):
            return spawn([MMC, "exec", "--threads", str(self.threads), "--data-dir",
                          os.path.join(d, data), "--cache-dir", os.path.join(d, "cache"),
                          os.path.join(d, p + ".mc")])
        fills = [("eddy_energy", fill("eddy_energy", "eddy_energy"))]
        code, _, err, _, _ = call(
            [PB, "gen-grid", d, str(self.seed), str(LAT), str(LON), str(STEPS),
             ",".join(map(str, self.rows))])
        if code != 0:
            raise BenchError("pb gen-grid failed: %s" % err.decode(errors="replace"))
        fills += [(p, fill(p, p + ".sample")) for p in ("fig1_temporal_mean", "fig8_scoring")]
        for p, proc in fills:
            code, _, err = finish(proc)
            if code != 0:
                raise BenchError("cache fill of %s failed: %s" % (p, err.decode(errors="replace")))

    def prepare(self):
        jobs, keys = [], []
        for t in sorted({1, PAR}):
            for p in self.progs:
                ref_dir = os.path.join(self.dir, "ref%d" % t, p)
                copy_inputs(os.path.join(self.dir, p + ".sample"), ref_dir)
                jobs.append((t, os.path.join(self.dir, p + ".sample.mc"), ref_dir))
                keys.append((t, p))
        grid_ref = EDDY_GRID_REF.get((LAT, LON, STEPS))
        if grid_ref is None:
            raise BenchError("no eddy_energy reference for %dx%dx%d" % (LAT, LON, STEPS))
        self.refs = {}
        for (t, p), ref in zip(keys, references(jobs)):
            ref_dir = os.path.join(self.dir, "ref%d" % t, p)
            names = new_outputs(ref_dir, ["ssh.data"])
            full = [LAT, LON] + ([STEPS] if p == "fig8_scoring" else [])
            self.refs[(t, p, "sample")] = (ref, [
                (n, same_bytes(read(os.path.join(ref_dir, n)))) for n in names])
            self.refs[(t, p, "grid")] = (grid_ref if p == "eddy_energy" else ref, [
                (n, same_rows(read(os.path.join(ref_dir, n)), self.rows, full))
                for n in names])

    def op_threads(self, kind):
        return {"run": 1, "run_par": PAR}.get(kind, self.threads)

    def where(self, kind, p, traced=False):
        grid = kind in ("emit", "exec_warm")
        src = os.path.join(self.dir, p + (".mc" if grid else ".sample.mc"))
        data = os.path.join(self.dir, p + ("" if grid else ".sample"))
        cache = ("cache" if kind == "exec_warm" else
                 "cache-cold-trace" if traced else "cache-cold")
        return src, data, os.path.join(self.dir, cache)

    def reference(self, kind, p):
        scale = "grid" if kind == "exec_warm" else "sample"
        return self.refs[(self.op_threads(kind), p, scale)]

    def round(self):
        """One round: a grid warm exec of each program and its other ops,
        all in one seeded order, so each program's samples of a kind are
        spread over the round rather than caught in one phase of a noisy
        machine.  The short ops vary most from one process to the next,
        so they get the extra samples: per program eight emits, two cold
        execs and four runs on each thread count."""
        kinds = ["exec_warm"] + ["emit"] * 8 + ["exec_cold"] * 2 + ["run", "run_par"] * 4
        ops = [[(k, p)] for p in self.progs for k in kinds]
        return self.rng.sample(ops, len(ops))


def make_workload(name, seed):
    rng = random.Random(seed)
    if name == "dev-loop":
        return DevLoop(rng, seed)
    return Paper(rng, seed, 1 if name == "paper-seq" else PAR)


# --- untraced and traced runs ------------------------------------------------

def cli_op(w, rec):
    def op(kind, p):
        def go(timed):
            w.before(kind, p)
            out = rec.op(kind, p, w.argv(kind, p), w.check(kind, p), timed)
            if kind == "emit" and out is not None:
                w.emit_bytes[p] = len(out)
        return go
    return op


PB_OP = {"emit": "emit", "exec_cold": "exec", "exec_warm": "exec",
         "run": "run", "run_par": "run"}


class Tracer:
    """Runs each op through `pb trace` in a fresh process, so per-process
    memoization is as cold as for a user, and keeps its spans and counts."""

    def __init__(self, w):
        self.w = w
        self.rec = Recorder()
        self.traces = collections.defaultdict(list)  # (kind, prog) -> [json]
        self.live_mismatch = 0

    def check(self, kind, p):
        w = self.w
        if kind == "emit":
            md5 = hashlib.md5(w.expected_emit[p]).hexdigest()
            return lambda out, err: (None if json.loads(out)["strings"]["md5"] == md5
                                     else "emitted C differs from the golden file")
        (value, live), outputs = w.reference(kind, p)
        cli_check = result_check((value, live), outputs, w.where(kind, p, True)[1])

        def check(out, err):
            t = json.loads(out)
            if t["counts"].get("live") != live:
                self.live_mismatch += 1
            return cli_check(b"result: %s\n" % t["strings"]["value"].encode(), err)
        return check

    def op(self, kind, p, pb_kind=None):
        def go(timed):
            w = self.w
            w.before(kind, p, traced=True)
            src, data, cache = w.where(kind, p, traced=True)
            argv = [PB, "trace", pb_kind or PB_OP[kind], str(w.op_threads(kind)),
                    src, data, cache]
            check = (lambda out, err: None) if pb_kind == "profile" else self.check(kind, p)
            out = self.rec.op(pb_kind or kind, p, argv, check, timed)
            if out is not None and timed:
                self.traces[(pb_kind or kind, p)].append(json.loads(out))
        return go


# the registered passes plus the always-appended rc reporting pass
PASSES = ("fuse", "copy-elim", "auto-par", "transform", "rc")
TOP_SPANS = ("compose", "frontend", "lower", "emit", "native.probe", "cache.lookup",
             "native.compile", "native.run", "native.parse", "interp.run")


def span_ms(traces, name, kinds):
    """A span's time as the end-to-end metrics aggregate: the geometric
    mean over programs of each program's mean (0 if it never ran)."""
    per_prog = collections.defaultdict(list)
    for (k, p), ts in traces.items():
        if k in kinds:
            per_prog[p] += [t["spans"][name] for t in ts if name in t["spans"]]
    means = [max(1e-6, statistics.mean(xs)) for xs in per_prog.values() if xs]
    return geomean(means) if means else 0.0


def per_layer(w, rec, tracer):
    """The per-layer metrics (README.md has the metric -> layer map)."""
    tr = tracer.traces
    every = set(KINDS)
    m = {}

    def ms(name, value):
        m[name] = (value, "ms")

    for name in ("compose", "compose.determinism", "compose.wellformed", "compose.lalr",
                 "compose.scanner", "frontend", "frontend.parse", "lower"):
        ms(name + ".ms", span_ms(tr, name, every))
    for name in PASSES:
        ms("pass.%s.ms" % name, span_ms(tr, "pass." + name, every))
    ms("emit.ms", span_ms(tr, "emit", {"emit", "exec_cold", "exec_warm"}))
    ms("native.probe.ms", span_ms(tr, "native.probe", {"exec_cold", "exec_warm"}))
    ms("cache.lookup.ms", span_ms(tr, "cache.lookup", {"exec_cold", "exec_warm"}))
    ms("native.compile.ms", span_ms(tr, "native.compile", {"exec_cold"}))
    ms("native.run.ms", span_ms(tr, "native.run", {"exec_warm"}))
    ms("native.parse.ms", span_ms(tr, "native.parse", {"exec_cold", "exec_warm"}))
    ms("interp.run.ms", span_ms(tr, "interp.run", {"run", "run_par"}))
    # self time of instrumented runs: per program mean, summed
    for name in ("native.io", "native.withloop", "native.matrixmap"):
        ms(name + ".ms", sum(statistics.mean(t["spans"][name] for t in ts)
                             for (k, _), ts in tr.items() if k == "profile"))

    # exact counts: one value per (program, op threads), summed
    def count_sum(name, kinds):
        seen = {}
        for (k, p), ts in tr.items():
            if k in kinds:
                for t in ts:
                    seen[(p, w.op_threads(k))] = t["counts"].get(name, 0)
        return sum(seen.values())

    m["compose.lalr_states"] = (max((t["counts"]["compose.lalr_states"]
                                     for ts in tr.values() for t in ts
                                     if "compose.lalr_states" in t["counts"]), default=0),
                                "count")
    for name in PASSES:
        m["pass.%s.applied" % name] = (count_sum("pass.%s.applied" % name, every), "count")
    m["emit.c_bytes"] = (count_sum("emit.c_bytes", {"emit"}), "bytes")
    m["interp.rc_allocs"] = (count_sum("interp.rc_allocs", {"run", "run_par"}), "count")
    m["interp.rc_peak_bytes"] = (count_sum("interp.rc_peak_bytes", {"run", "run_par"}),
                                 "bytes")
    warm = [t for (k, _), ts in tr.items() if k == "exec_warm" for t in ts]
    m["cache.hit_ratio"] = (sum(t["counts"]["cache.hit"] for t in warm) / max(1, len(warm)),
                            "ratio")
    m["native.live_mismatch"] = (tracer.live_mismatch, "count")

    # the process: untraced wall vs traced spans, both on warm exec
    untraced = rec.per_program("exec_warm")
    traced_wall = tracer.rec.per_program("exec_warm")
    progs = sorted(set(untraced) & set(traced_wall))
    spans_sum = {p: statistics.mean(sum(t["spans"].get(n, 0.0) for n in TOP_SPANS)
                                      for t in tr[("exec_warm", p)]) for p in progs}
    cpu = rec.per_program("exec_warm", table=rec.cpu)
    if progs:
        ms("proc.unattributed.ms", geomean([max(1e-3, traced_wall[p] - spans_sum[p])
                                            for p in progs]))
        ms("trace.overhead.ms", statistics.median(traced_wall[p] - untraced[p]
                                                  for p in progs))
        ms("proc.cpu_ms", geomean([cpu[p] for p in progs]))
    else:
        for name in ("proc.unattributed.ms", "trace.overhead.ms", "proc.cpu_ms"):
            ms(name, 0.0)
    return m, {p: (untraced[p], traced_wall[p], spans_sum[p]) for p in progs}


def end_to_end(w, rec, setup_s):
    m = {}
    for kind in KINDS:
        s = rec.summary(kind)
        m["%s_ms.mean" % kind] = (s["mean"] if s else 0.0, "ms")
    m["emitted_c_bytes"] = (sum(w.emit_bytes.values()), "bytes")
    m["setup_s"] = (setup_s, "s")
    return m


def report(name, seed, w, rec, n_rounds, window, setups, extra):
    print("workload %s  seed %d  threads<=%d  %d round(s) in %.1f s  "
          "ops %d attempted, %d failed"
          % (name, seed, PAR, n_rounds, window, rec.attempted, rec.failed))
    print("  setup_s %.3f  (median of %s)" % (statistics.median(setups),
                                              ", ".join("%.3f" % x for x in setups)))
    for kind in KINDS:
        s = rec.summary(kind)
        if s is None:
            print("  %s_ms.mean  no samples" % kind)
            continue
        print("  %-18s %9.1f ms  (geomean of %d program means; pooled n=%d "
              "q1 %.1f median %.1f q3 %.1f)"
              % (kind + "_ms.mean", s["mean"], s["programs"], s["n"], s["pooled_q1"],
                 s["pooled_median"], s["pooled_q3"]))
        print("  %-18s %9.1f ms  (geomean of program medians)" % (kind + "_ms.p50", s["p50"]))
        print("  %-18s %s" % (kind + "_ms.p90", "%9.1f ms" % s["p90"] if s["p90"] else
                              "n/a: n=%d < %d" % (s["n"], P90_MIN_SAMPLES)))
    if isinstance(w, Paper):
        for kind in KINDS:
            for p, mean in sorted(rec.per_program(kind).items()):
                xs = rec.wall[(kind, p)]
                print("  %-10s %-20s mean %8.1f median %8.1f ms of %s" % (
                    kind, p, mean, statistics.median(xs), " ".join("%.1f" % x for x in xs)))
        means = rec.per_program("exec_warm")
        if means:
            print("  cells_per_s %.4g  (warm exec, geomean over programs of %d x %d x %d "
                  "cells over the mean)" % (
                      geomean([LAT * LON * STEPS / (x / 1e3) for x in means.values()]),
                      LAT, LON, STEPS))
    print("  emitted_c_bytes %d over %d programs" % (sum(w.emit_bytes.values()),
                                                    len(w.emit_bytes)))
    print("  failed_ratio %.4f (%d / %d)" % (rec.failed / max(1, rec.attempted),
                                            rec.failed, rec.attempted))
    if w.live_races:
        print("  KNOWN DEFECT (ROADMAP item 1, native live-count race): %d parallel "
              "native op(s) warned 'still live' with outputs correct"
              % len(w.live_races))
        for r in w.live_races[:20]:
            print("    " + r)
    for line in extra:
        print("  " + line)
    for f in rec.failures[:20]:
        print("  FAILED " + f)


# --- main -------------------------------------------------------------------

def check_tree():
    for path in ("dune-project", os.path.join("bin", "mmc.ml"), GOLDEN,
                 os.path.join("perfbench", "pb.ml")):
        if not os.path.exists(path):
            raise BenchError("%s not found: run from the root of the mmc repository" % path)


def build():
    code = subprocess.call(["dune", "build", "--root", ".", "./bin/mmc.exe",
                            "./perfbench/pb.exe"], stdout=sys.stderr, stderr=sys.stderr,
                           env=ENV)
    if code != 0:
        raise BenchError("dune build failed")


def timed_setups(w, root, n):
    times = []
    for i in range(n):
        d = os.path.join(root, "setup%d" % i)
        t0 = time.perf_counter()
        os.makedirs(d)
        w.setup(d)
        times.append(time.perf_counter() - t0)
        if i + 1 < n:
            shutil.rmtree(d)
    return times


def run_workload(name, seed, seconds, trace, root):
    w = make_workload(name, seed)
    setups = timed_setups(w, root, SETUP_REPEATS[name])
    w.prepare()
    rec = Recorder()
    cli = cli_op(w, rec)
    if trace:
        tracer = Tracer(w)

        profiled = set()

        def ops(kind, p):
            # The traced twin runs right after the untraced op.  A
            # program's first warm exec also gets an instrumented run for
            # the native profile.
            step = [cli(kind, p), tracer.op(kind, p)]
            if kind == "exec_warm" and p not in profiled:
                profiled.add(p)
                step.append(tracer.op(kind, p, "profile"))
            return step
    else:
        def ops(kind, p):
            return [cli(kind, p)]

    # A run is a whole number of rounds, fixed by --seconds and the
    # workload's nominal round time, so both sides of a comparison do the
    # same work for the same seed.  A traced run does every op twice, so
    # it runs half the rounds.
    n_rounds = max(1, int(seconds / ROUND_SECONDS[name] + 0.5) // (2 if trace else 1))
    rounds = [[[op for kind, p in step for op in ops(kind, p)] for step in w.round()]
              for _ in range(n_rounds)]
    warmup = [[cli(kind, p) for kind, p in step] for step in w.warmup()]
    window = closed_loop(rounds, warmup=warmup)
    setup_s = statistics.median(setups)
    extra = []
    if trace:
        metrics, attribution = per_layer(w, rec, tracer)
        rec.attempted += tracer.rec.attempted
        rec.failed += tracer.rec.failed
        rec.failures += tracer.rec.failures
        for p, (untraced, traced, spans) in sorted(attribution.items()):
            extra.append("exec_warm %-20s untraced %.1f ms, traced %.1f ms = spans %.1f "
                         "+ unattributed %.1f" % (p, untraced, traced, spans, traced - spans))
        for k, (v, unit) in sorted(metrics.items()):
            extra.append("%-28s %12.4f %s" % (k, v, unit))
    else:
        metrics = end_to_end(w, rec, setup_s)
    report(name, seed, w, rec, n_rounds, window, setups, extra)
    correct = rec.failed == 0 and all(rec.summary(k) for k in KINDS)
    return {"correct": correct, "attempted": rec.attempted, "failed": rec.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def self_test(root):
    """The exact counts repeat exactly: trace the same ops twice, each in
    a fresh process, and compare every count."""
    w = DevLoop(random.Random(0), 0)
    os.makedirs(os.path.join(root, "selftest"))
    w.setup(os.path.join(root, "selftest"))
    w.prepare()
    runs = []
    for _ in range(2):
        counts = {}
        for p in ("eddy_energy", "fig8_scoring", "rand00", "transform_tiling"):
            for pb_kind in ("emit", "run"):
                src, data, cache = w.where(pb_kind, p, True)
                code, out, err, _, _ = call([PB, "trace", pb_kind, "1", src, data, cache])
                if code != 0:
                    raise BenchError("pb trace %s %s failed: %s" % (pb_kind, p, err.decode()))
                counts[(pb_kind, p)] = json.loads(out)["counts"]
        runs.append(counts)
    bad = [k for k in runs[0] if runs[0][k] != runs[1][k]]
    for k in sorted(runs[0]):
        print("%-24s %s %s" % ("%s %s" % k, "DIFFERS" if k in bad else "same",
                               json.dumps(runs[0][k], sort_keys=True)))
    print("self-test: %s" % ("FAIL" if bad else "PASS"))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    # Fixed width, so every run hands its processes paths and an
    # environment of the same size (sizes can move stack alignment).
    root = os.path.abspath(os.path.join(TMP_PARENT, "run-%010d" % os.getpid()))

    def on_signal(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, on_signal)
    try:
        check_tree()
        os.makedirs(os.path.join(root, "tmp"))
        # Every temporary file of dune, the compilers, mmc and pb lands
        # under the root, and dune keeps no cache outside the tree.
        ENV["TMPDIR"] = os.path.join(root, "tmp")
        ENV["DUNE_CACHE"] = "disabled"
        build()
        if args.self_test:
            return self_test(root)
        log("benchmark: workload %s seed %d" % (args.workload, args.seed))
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, root)
        print(json.dumps(result), flush=True)
        return 0
    except BenchError as e:
        log("benchmark: %s" % e)
        return 2
    finally:
        kill_children()
        shutil.rmtree(root, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
