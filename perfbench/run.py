"""jetmin benchmark: one closed-loop caller, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload scan|suita|cli --seed N --seconds S --trace 0|1

Run from the root of a jetmin checkout; the library is imported from
``src/``.  Inputs are generated from the seed by ``gen.py``.  One process
issues ops in a closed loop: the next op starts when the previous one
returns.  With ``--trace 0`` the end-to-end metrics are measured; with
``--trace 1`` the same ops run with spans around every layer boundary
(``spans.py``) and the per-layer metrics are reported, per op.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

Workloads and why they were chosen:
  scan   in-process scan_G (N=24, r_count=17) on five problems: two
         transported single points (exponential and tabulated gain), two
         two-point problems (constant gain on the disc, exponential gain on
         a Moebius image) and a three-point problem (tabulated gain).  Every
         G rebuilds its region twice and assembles a Gram; import is
         amortised away.
  suita  in-process suita_compare at t = 0: the same quadrature layers with
         no scan grid to amortise over; N in {16, 24, 40} shifts the balance
         between Gram cost (nodes x N^2) and region cost.
  cli    a fresh interpreter per command (appendix, suita on the unit-disc
         two-point file, verify-lemmas on a p > 2 file, capacity): interpreter
         start plus `import jetmin` dominates; verify-lemmas is the only
         caller of the scalar-integral path.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

import gen
import spans

WORKLOADS = ("scan", "suita", "cli")
SETUP_REPS = 7
IMPORT_REPS = 3
# one caller and no extra threads: OpenBLAS is pinned to a single thread
BLAS_THREADS = 1
# a run fails its accuracy check when max_rel_err exceeds ACCURACY_FACTOR
# times the value ACCURACY.json records for its seed (accuracy.py), or the
# worst recorded value for a seed outside the record; errors at rounding
# level (cli's closed-form paths, ~1e-13) may move up to REL_ERR_FLOOR
ACCURACY_FACTOR = 2.0
REL_ERR_FLOOR = 1e-10
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_CODE = "import sys, jetmin\nfor f in sys.argv[1:]:\n    jetmin.load_problem(f)\n"


def spawn(argv, out_path=os.devnull, err_path=os.devnull):
    """Run argv to completion; (exit code, wall seconds, peak RSS in KiB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    t0 = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ,
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), perf_counter() - t0, usage.ru_maxrss


class SetupSampler:
    """setup_s samples: fresh interpreters that start, `import jetmin` and
    load_problem each file.

    The SETUP_REPS samples are spread evenly over the run, between ops and
    off the run's clock, so one slow period of the machine does not move
    them all.  A first interpreter is not kept: it fills the bytecode caches
    of a new checkout.
    """

    def __init__(self, paths):
        self.argv = ["-c", SETUP_CODE, *paths]
        self.times: list[float] = []
        self.sample()
        self.times.clear()

    def sample(self) -> None:
        code, wall, _ = spawn(self.argv)
        if code != 0:
            raise RuntimeError(f"setup interpreter exited {code}")
        self.times.append(wall)

    def catch_up(self, done: float) -> float:
        """Take the samples due once a share `done` of the run has passed;
        return the seconds spent."""
        t0 = perf_counter()
        while len(self.times) < min(SETUP_REPS, int(done * SETUP_REPS) + 1):
            self.sample()
        return perf_counter() - t0


def measure_imports(work: str) -> dict:
    """import.* metrics, each the median over IMPORT_REPS fresh interpreters."""
    err = os.path.join(work, "importtime.txt")
    runs = []
    for _ in range(IMPORT_REPS):
        code, _, _ = spawn(["-X", "importtime", "-c", "import jetmin"], err_path=err)
        if code != 0:
            raise RuntimeError(f"importtime interpreter exited {code}")
        with open(err, encoding="utf-8") as fh:
            runs.append(spans.parse_importtime(fh.read()))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# -- per-op correctness -------------------------------------------------------

def rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def rel_err_gate(workload: str, seed: int) -> float:
    with open(os.path.join(HERE, "ACCURACY.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    errs = record["max_rel_err"][workload]
    k = seed - record["first_seed"]
    base = errs[k] if 0 <= k < len(errs) else max(errs)
    return max(ACCURACY_FACTOR * base, REL_ERR_FLOOR)


def check_scan(item, problem, rep):
    """(failures, relative error vs the closed form or None)."""
    g = rep.g_values
    bad = []
    if not all(math.isfinite(v) for v in g):
        bad.append("non-finite G")
    scale = max(abs(v) for v in g)
    # the threshold `jetmin scan` applies before exiting 3
    threshold = max(10.0 * rep.max_quad_error, problem.numerics.tolerance * scale)
    if rep.max_violation > threshold:
        bad.append(f"concavity violation {rep.max_violation:.3g} > {threshold:.3g}")
    # r grows along the grid, so t falls and G must not fall
    if any(b < a - rep.max_quad_error for a, b in zip(g, g[1:])):
        bad.append("G increases with t beyond the quadrature error")
    err = None
    ref = item["reference"]
    if ref is not None:
        z0 = complex(*ref["zeta0"])
        err = max(rel(v, gen.single_point_closed_form(z0, r)) for v, r in zip(g, rep.r_grid))
    return bad, err


def check_suita(item, problem, rep):
    bad = []
    if not (math.isfinite(rep.c_omega_f) and math.isfinite(rep.gap)):
        bad.append("non-finite G or gap")
    if rep.gap < -rep.equality_tolerance:
        bad.append(f"gap {rep.gap:.3g} below -{rep.equality_tolerance:.3g}")
    err = None
    ref = item["reference"]
    if ref is not None:
        if rep.equality != rep.criterion.all_hold:
            bad.append("equality verdict disagrees with the criterion")
        err = rel(rep.c_omega_f, gen.two_point_closed_form(complex(*ref["a"])))
    return bad, err


def check_cli(item, out: bytes):
    """Checks on one command's stdout; (failures, relative error or None)."""
    text = out.decode("utf-8")
    name = item["name"]
    if name == "appendix":
        bad, errs = [], []
        for line in text.splitlines():
            fields = line.split()
            if fields[:1] in (["minimum"], ["bound"]):
                errs.append(rel(float(fields[1]), float(fields[3])))
            if fields[:1] == ["equality"] and fields[-1] != "pass":
                bad.append("appendix case failed its checks")
        if len(errs) != 2 * len(gen.APPENDIX_A):
            bad.append("appendix output incomplete")
        return bad, max(errs, default=None)
    if name == "suita":
        rep = json.loads(text)["report"]
        bad = []
        if rep["gap"] < -rep["equality_tolerance"]:
            bad.append("gap below tolerance")
        if rep["equality"] != rep["criterion"]["all_hold"]:
            bad.append("equality verdict disagrees with the criterion")
        return bad, rel(rep["c_omega_f"], gen.two_point_closed_form(complex(*item["a"])))
    if name == "verify-lemmas":
        ok = json.loads(text)["report"]["passed"] is True
        return ([] if ok else ["verify-lemmas did not pass"]), None
    z0 = complex(*item["z0"])
    value = float(text)  # capacity, printed with 6 decimals
    ok = abs(value - 1.0 / (1.0 - abs(z0) ** 2)) <= 1e-6
    return ([] if ok else [f"capacity {value} off the closed form"]), None


# -- op runners ---------------------------------------------------------------

class InProcess:
    """scan / suita: the op is one library call on a loaded problem."""

    def __init__(self, workload: str, items):
        import jetmin  # imported only now, after main() pinned the BLAS threads
        import jetmin.analysis

        self.analysis = jetmin.analysis
        self.workload = workload
        self.items = items
        self.problems = [jetmin.load_problem(it["paths"][0]) for it in items]

    def g_count(self, i: int) -> int:
        return self.problems[i].numerics.r_count if self.workload == "scan" else 1

    def run(self, i: int):
        """(latency, failures, relative error)."""
        p = self.problems[i]
        fn = self.analysis.scan_G if self.workload == "scan" else self.analysis.suita_compare
        t0 = perf_counter()
        rep = fn(p)  # looked up on each call, so traced runs see the patched name
        wall = perf_counter() - t0
        check = check_scan if self.workload == "scan" else check_suita
        return (wall, *check(self.items[i], p, rep))

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Cli:
    """cli: the op is one `jetmin` command in a fresh interpreter."""

    def __init__(self, items, work: str):
        self.items = items
        self.work = work
        self.traced = False  # set for a traced run once the untraced warm-up is done
        self.first_out: dict[str, bytes] = {}
        self.span_files: list[str] = []
        self.peak_kib = 0

    def g_count(self, i: int) -> int:
        return self.items[i]["g_count"]

    def run(self, i: int):
        item = self.items[i]
        out = os.path.join(self.work, "stdout.txt")
        if self.traced:
            span_file = os.path.join(self.work, f"spans_{len(self.span_files):05d}.json")
            self.span_files.append(span_file)
            argv = [os.path.join(HERE, "traced_cli.py"), span_file, *item["argv"]]
        else:
            argv = ["-m", "jetmin.cli", *item["argv"]]
        code, wall, rss = spawn(argv, out_path=out)
        self.peak_kib = max(self.peak_kib, rss)
        with open(out, "rb") as fh:
            data = fh.read()
        if code != 0:
            return wall, [f"{item['name']} exited {code}"], None
        first = self.first_out.setdefault(item["name"], data)
        bad, err = check_cli(item, data)
        if data != first:
            bad.append(f"{item['name']} stdout differs from its first invocation")
        return wall, bad, err

    def peak_rss_kib(self) -> int:
        return self.peak_kib


def closed_loop(runner, n_items: int, seconds: float, setup: SetupSampler | None):
    """Issue ops in cycle order, in whole passes, until `seconds` have elapsed.

    Whole passes keep the mix of inputs in every run the same, so medians
    do not jump with the op at which time ran out, and counts per op repeat
    exactly for a given seed.  Set-up samples are taken between ops, off the
    clock.
    """
    lat, fails, errs, gs = [], [], [], 0
    off_clock = 0.0
    t0 = perf_counter()

    def clock() -> float:
        return perf_counter() - t0 - off_clock

    while clock() < seconds:
        for i in range(n_items):
            t_op = perf_counter()
            try:
                wall, bad, err = runner.run(i)
            except Exception as exc:  # a raising op is a failed op; keep going
                wall, bad, err = perf_counter() - t_op, [f"{type(exc).__name__}: {exc}"], None
            lat.append(wall)
            fails.append(bad)
            if err is not None:
                errs.append(err)
            if not bad:
                gs += runner.g_count(i)
            if setup is not None:
                off_clock += setup.catch_up(clock() / seconds)
    elapsed = clock()
    if setup is not None:
        setup.catch_up(1.0)
    return lat, fails, errs, gs, elapsed


def warm_up(runner, workload: str) -> None:
    """One untimed op; lazy library set-up and caches fill before timing."""
    if workload == "cli":
        runner.run(len(runner.items) - 1)  # capacity: cheapest
    else:
        runner.analysis.suita_compare(runner.problems[0])


# -- main ---------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare(root: str) -> bool:
    """Pin the BLAS threads and import jetmin from root/src, for this process
    and its children; False if root holds no jetmin sources."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "jetmin", "__init__.py")):
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not prepare(root):
        sys.stderr.write("run.py: no jetmin sources under ./src; run from a checkout root\n")
        return 2
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: str) -> int:
    items = gen.generate(args.workload, args.seed, work)
    traced = bool(args.trace)
    paths = [p for it in items for p in it["paths"]]
    setup = None if traced else SetupSampler(paths)
    imports = measure_imports(work) if traced else {}
    gate = rel_err_gate(args.workload, args.seed)

    if args.workload == "cli":
        runner = Cli(items, work)
    else:
        runner = InProcess(args.workload, items)
    warm_up(runner, args.workload)

    tracer = None
    if traced and args.workload == "cli":
        runner.traced = True  # stdout must still match the untraced warm-up's
    elif traced:
        tracer = spans.Tracer()
        spans.install(tracer)
    lat, fails, errs, g_total, elapsed = closed_loop(runner, len(items), args.seconds, setup)
    n_ops = len(lat)
    n_failed = sum(1 for b in fails if b)
    max_err = max(errs, default=0.0)
    err_ok = max_err <= gate
    correct = n_failed == 0 and err_ok

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  blas_threads {BLAS_THREADS}  closed loop, 1 caller")
    for i, bad in enumerate(fails):
        for why in bad:
            print(f"  FAILED op {i} ({items[i % len(items)]['name']}): {why}")
    print(f"  ops {n_ops}  failed {n_failed}  fail_ratio {n_failed / n_ops:.4g}")
    print(f"  max_rel_err {max_err:.3e} vs closed forms over {len(errs)} checked ops "
          f"(gate {gate:.3e}: {'ok' if err_ok else 'EXCEEDED'})")

    if traced:
        if args.workload == "cli":
            exports = []
            for path in runner.span_files:
                with open(path, encoding="utf-8") as fh:
                    exports.append(json.load(fh))
        else:
            exports = [tracer.export()]
        metrics = spans.layer_metrics(exports, n_ops, statistics.fmean(lat), imports)
        if args.workload != "cli":
            # in-process ops take loaded problems: time one load per input
            import jetmin
            t0 = perf_counter()
            for path in paths:
                jetmin.load_problem(path)
            metrics["problems.load_problem.s"] = (perf_counter() - t0) / len(paths)
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        print(f"  per-layer metrics, per op, over {n_ops // len(items)} whole pass(es) "
              f"of {len(items)} ops")
        if args.workload == "cli":
            print("  note: verify-lemmas evaluates psi through a closure in analysis, not "
                  "WeightKernel.psi, so its kernel time stays inside build_region.self_s")
        for name, unit, desc in spans.LAYER_METRICS:
            print(f"    {name:36s} {metrics[name]:14.6g} {unit:6s} {desc}")
        out = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        metrics = {
            "setup_s": (statistics.median(setup.times), "s"),
            "ops_per_s": (n_ops / elapsed, "1/s"),
            "g_per_s": (g_total / elapsed, "1/s"),
            "op_p50_s": (statistics.median(lat), "s"),
            "peak_rss_mb": (runner.peak_rss_kib() / 1024.0, "MB"),
        }
        for name, (value, unit) in metrics.items():
            print(f"    {name:12s} {value:12.6g} {unit}")
        print(f"    setup runs {SETUP_REPS}: " + " ".join(f"{s:.4f}" for s in setup.times))
        if n_ops >= 100:
            p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
            print(f"    op_p90_s     {p90:12.6g} s  ({n_ops} samples)")
        out = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": n_ops, "failed": n_failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
