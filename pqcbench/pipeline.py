"""Seeded inputs, timed stages and oracle checks of the pqc benchmark.

Every workload runs the same five stages, each on its own seeded input:

* compress: ``pqc compress`` (multiscan) of a jittered epsilon-net text
  file, through ``pqc.cli.main`` in this process;
* build: ``round_set`` + ``CompressedStore.build`` on the same points;
* load: the validating ``CompressedStore.load`` of a saved lossy store;
* stream: one closed-loop caller issuing a seeded mix of ``square_of``,
  ``locate``, ``vertices``, ``voronoi`` and ``insert`` ops on that store;
* refine: ``pqc refine --rho 2 --gamma 4`` of epsilon-nets with seeded
  close-point defects, through ``pqc.cli.main``.

A workload is a size profile (``WORKLOADS``): it makes one stage large
and keeps the others small, so each end-to-end metric is measured on
every workload.  All answers are checked outside the timed regions.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import itertools
import random
import resource
import statistics
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

# Library functions are called through their modules, so that the traced
# run's wrappers (which rebind module attributes) see these calls too.
from pqc import cli, geom, qtree
from pqc.morton import Config, TrieSquare, clear_low_bits, interleave
from pqc.qtree import ArrayPointSource
from pqc.reference import EpsilonNetSpec, brute_voronoi, generate_epsilon_net
from pqc.store import LOSSY, CompressedStore

W = 16
QUERY_CFG = Config(d=2, w=W, gamma=5)
REFINE_CFG = Config(d=2, w=W, gamma=4)
RHO = 2
OP_KINDS = ("square_of", "locate", "vertices", "voronoi", "insert")
SETUP_REPEATS = 3
# A pass runs in rounds, each doing a share of every stage, so that every
# metric samples the whole pass: on a shared machine the CPU speed drifts
# over seconds, and a stage run as one block would catch one drift state.
ROUNDS = 6
# Every timed interval is rescaled to a nominal CPU speed (speed.py), and
# a stage is reported by the median of its rescaled calls.
REFINE_CALLS = 2  # calls of each refine job per pass
BUILD_LOAD_SECONDS = 2.0  # per stage and pass, spread over the rounds


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload.  An ``*_f0`` is the spacing floor of a
    jittered epsilon-net filling the 2**16 grid: halving it quadruples the
    point count."""

    compress_f0: int  # the net that is compressed and built
    compress_calls: int  # per pass; the median call is reported
    query_f0: int  # the net behind the queried store: 90% stored, 10% inserted
    stream: dict  # op kind -> count; inserts are capped by the withheld points
    refine_f0: int  # each refine job is such a net plus close defect points
    refine_defects: int
    refine_jobs: int
    brute_cells: int = 2  # voronoi answers also checked against brute_voronoi


FULL_STREAM = {"square_of": 500, "locate": 1000, "vertices": 1000, "voronoi": 300, "insert": 500}
# Fewer voronoi ops, the costly kind.  The 500 inserts split nearly every
# block: with 140, about half the blocks stayed whole, and the median
# voronoi latency, falling between the cells over whole and over split
# blocks, spread 21% between seeds.
SMALL_STREAM = {**FULL_STREAM, "voronoi": 200}

WORKLOADS = {
    # Reads and inserts on a 5,616-point store of about 175 blocks.
    "query": Sizes(
        compress_f0=4096, compress_calls=6, query_f0=724, stream=FULL_STREAM,
        refine_f0=4096, refine_defects=8, refine_jobs=2, brute_cells=4,
    ),
    # Refinement of three 212-point nets, the largest construction stage
    # (784 points), and the stream on the store of "query" with fewer
    # voronoi ops: on a store of ~43 blocks, the p50 latencies of one seed
    # sat up to 9% from those of another.
    "refine": Sizes(
        compress_f0=2048, compress_calls=2, query_f0=724, stream=SMALL_STREAM,
        refine_f0=4096, refine_defects=8, refine_jobs=3,
    ),
}


def net(f0: int, seed: int) -> list:
    cfg = Config(d=2, w=W, gamma=0)
    return generate_epsilon_net(EpsilonNetSpec.fill(f0, 0.9, cfg), cfg, seed)


def defect_net(f0: int, defects: int, seed: int) -> list:
    """An epsilon-net plus ``defects`` extra points, placed f0/4, f0/6 and
    f0/8 in turn from a net point, so refinement must grade down around
    them.  The defect sites lie at least two spacings inside the domain and
    three spacings apart, so each grades down on its own.  Unlike a uniform
    scatter, or defects of random depth at random sites, the refinement
    cost of such a set varies little from seed to seed."""
    pts = net(f0, seed)
    rng = random.Random(f"defects-{seed}")
    lo, hi = 2 * f0, (1 << W) - 2 * f0
    sites = []
    for p in rng.sample(pts, len(pts)):
        if lo <= min(p) and max(p) <= hi and all(
            (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 >= (3 * f0) ** 2 for q in sites
        ):
            sites.append(p)
            if len(sites) == defects:
                break
    else:
        raise ValueError(f"no room for {defects} defects at spacing {f0}")
    extra = set()
    for j, p in enumerate(sites):
        r = f0 // (4, 6, 8)[j % 3]
        dx, dy = rng.choice(((r, 0), (-r, 0), (0, r), (0, -r)))
        extra.add((p[0] + dx, p[1] + dy))
    return pts + sorted(extra)


def write_points(path: Path, pts):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# pqc d=2 w={W} scale=1\n")
        fh.writelines(f"{x} {y}\n" for x, y in pts)


def run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _spread(count: int, rounds: int) -> list:
    """The round of each of ``count`` items, evenly over ``rounds``."""
    return [i * rounds // count for i in range(count)]


# --- set-up ------------------------------------------------------------------


@dataclass
class Inputs:
    compress_calls: int  # per pass; the median call is reported
    compress_txt: Path
    compress_points: list
    query_pqc: Path
    stored: list  # rounded points of the saved query store, Morton order
    ops: list
    refine_pqc: list
    refine_points: list  # rounded input points of each refine job


def make_ops(rng: random.Random, stored: list, withheld: list, mix: dict) -> list:
    stored_set = set(stored)
    ops = [("square_of", rng.choice(stored)) for _ in range(mix["square_of"])]
    while len(ops) < mix["square_of"] + mix["locate"]:
        p = (rng.randrange(1 << W), rng.randrange(1 << W))
        if p not in stored_set:
            ops.append(("locate", p))
    for _ in range(mix["vertices"]):
        h = rng.randint(6, 13)
        corner = clear_low_bits((rng.randrange(1 << W), rng.randrange(1 << W)), h)
        ops.append(("vertices", (corner, h)))
    ops += [("voronoi", rng.choice(stored)) for _ in range(mix["voronoi"])]
    # Evenly over the withheld points, which are in Morton order.
    n = min(mix["insert"], len(withheld))
    ops += [("insert", withheld[i * len(withheld) // n]) for i in range(n)]
    rng.shuffle(ops)
    return ops


def set_up(sizes: Sizes, seed: int, work: Path) -> Inputs:
    """Generate every input from ``seed``; build and save the starting stores."""
    compress_points = net(sizes.compress_f0, 10 * seed + 1)
    compress_txt = work / "compress_in.txt"
    write_points(compress_txt, compress_points)

    rng = random.Random(f"query-{seed}")
    kept, withheld = [], []
    # One point in each run of ten in Morton order is withheld, and the
    # inserts are spread evenly over them, so every block receives about
    # as many inserts.  With a plain random 10%, a
    # dozen of the ~175 blocks receive none and stay twice as large as
    # the split ones, and how many there are moved the decoded points per
    # read op by 15% from seed to seed.
    pts = sorted(net(sizes.query_f0, 10 * seed + 2), key=lambda p: interleave(p, QUERY_CFG))
    for i in range(0, len(pts), 10):
        run = pts[i : i + 10]
        withheld.append(run.pop(rng.randrange(len(run))))
        kept += run
    heighted = geom.round_set(kept, QUERY_CFG)
    query_pqc = work / "query.pqc"
    CompressedStore.build(heighted, QUERY_CFG, LOSSY).save(query_pqc)
    stored = [hp.coords for hp in heighted]
    ops = make_ops(rng, stored, withheld, sizes.stream)

    refine_pqc, refine_points = [], []
    for job in range(sizes.refine_jobs):
        rounded = geom.round_set(
            defect_net(sizes.refine_f0, sizes.refine_defects, 10 * seed + 3 + job), REFINE_CFG
        )
        path = work / f"refine_in_{job}.pqc"
        CompressedStore.build(rounded, REFINE_CFG, LOSSY).save(path)
        refine_pqc.append(path)
        refine_points.append([hp.coords for hp in rounded])
    return Inputs(
        sizes.compress_calls, compress_txt, compress_points, query_pqc, stored, ops, refine_pqc, refine_points
    )


# --- one measured unit -------------------------------------------------------


@dataclass
class OpError:
    """Stands in for the answer of an op that raised."""

    kind: str
    error: str


@dataclass
class Unit:
    """Timings, answers and work counts of one pass over the stages.

    Timings are (start, end) intervals of ``SpeedClock.now`` readings,
    rescaled to the nominal speed only when the metrics are computed."""

    stage_s: dict = field(default_factory=lambda: {"compress": [], "build": [], "load": []})
    refine_job_s: dict = field(default_factory=dict)  # job -> interval of each call
    wall_s: float = 0.0
    latencies: dict = field(default_factory=lambda: {k: [] for k in OP_KINDS})
    answers: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)  # stage or op kind -> counts
    stage_errors: list = field(default_factory=list)
    compressed: CompressedStore = None
    built: CompressedStore = None
    queried: CompressedStore = None
    refined: list = field(default_factory=list)

    def refine_s(self, clock) -> float:
        """All refine jobs, each by the median of its rescaled calls."""
        return sum(
            statistics.median(clock.scaled(*t) for t in times) for times in self.refine_job_s.values()
        )

    def digest(self) -> str:
        h = hashlib.sha256()
        for ans in self.answers:
            h.update(repr(ans).encode())
        for store in (self.compressed, self.queried, *self.refined):
            h.update(store.to_bytes() if store is not None else b"-")
        return h.hexdigest()


def compress_argv(inputs: Inputs, out: Path) -> list:
    return ["compress", str(inputs.compress_txt), "-o", str(out), "--gamma", str(QUERY_CFG.gamma)]


def refine_argv(path: Path, dest: Path) -> list:
    return ["refine", str(path), "-o", str(dest), "--rho", str(RHO), "--gamma", str(REFINE_CFG.gamma)]


def traced_peaks(inputs: Inputs, work: Path) -> dict:
    """tracemalloc peak bytes of one compress and of the first refine job.

    tracemalloc slows these stages six to nine times, so it runs in a pass
    of its own rather than under the traced pass's timers."""
    peaks = {}
    for name, argv in (
        ("compress", compress_argv(inputs, work / "peak.pqc")),
        ("refine", refine_argv(inputs.refine_pqc[0], work / "peak.pqc")),
    ):
        tracemalloc.start()
        try:
            run_cli(argv)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def do_op(store: CompressedStore, kind: str, arg):
    if kind in ("square_of", "locate"):
        s = qtree.square_of(arg, store)
        return s.corner, s.height
    if kind == "vertices":
        corner, h = arg
        rng = qtree.vertices(TrieSquare(corner, h), store)
        return rng.lo, rng.hi, list(store.iter_range(rng.lo, rng.hi))
    if kind == "voronoi":
        return cell_answer(qtree.restricted_voronoi(arg, store))
    h = qtree.square_of(arg, store).height
    q = geom.round_point(arg, h, QUERY_CFG.gamma)
    store.insert(q, h)
    return q, h


def cell_answer(cell):
    return cell.nn_sq, tuple(cell.neighbors), tuple(cell.polygon), cell.clip_bounded, cell.aspect_sq


def _add(into: dict, key: str, counts: dict):
    slot = into.setdefault(key, dict.fromkeys(counts, 0))
    for k, v in counts.items():
        slot[k] += v


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def run_unit(inputs: Inputs, work: Path, tally, clock, tracer=None, repeat=True) -> Unit:
    """Run every stage, interleaved over ``ROUNDS`` rounds.

    With ``repeat`` off (the traced run), compress and each refine job run
    once and build and load once a round.  Work counts are kept per stage
    and per op kind; a stage called several times records the counts of
    its first call, so they do not depend on the repeats."""
    unit = Unit()
    t_unit = clock.now()
    op_ids = itertools.count(1)

    def call(name, fn, count=False):
        if tracer is not None:
            tracer.op_id = next(op_ids)
        before = tally.snapshot()
        try:
            return fn()
        except Exception:  # noqa: BLE001 - a failed stage is counted, not fatal
            unit.stage_errors.append((name, traceback.format_exc()))
            return None
        finally:
            if count or name not in unit.counters:
                _add(unit.counters, name, _delta(tally.snapshot(), before))

    def timed(name, fn, min_seconds):
        """Call at least once and until ``min_seconds`` have passed."""
        times = unit.stage_s[name]
        spent = 0.0
        while True:
            t0 = clock.now()
            value = call(name, fn)
            times.append((t0, clock.now()))
            spent += times[-1][1][0] - t0[0]
            if value is None or spent >= min_seconds:
                return value

    out = work / "compressed.pqc"
    n_ops = len(inputs.ops)
    compress_rounds = _spread(inputs.compress_calls if repeat else 1, ROUNDS)
    jobs = len(inputs.refine_pqc)
    refine_calls = list(range(jobs)) * (REFINE_CALLS if repeat else 1)
    build_load_s = BUILD_LOAD_SECONDS / ROUNDS if repeat else 0.0
    refine_rounds = _spread(len(refine_calls), ROUNDS)
    refine_codes = {}
    store = None
    for r in range(ROUNDS):
        for _ in range(compress_rounds.count(r)):
            code = timed("compress", lambda: run_cli(compress_argv(inputs, out)), 0.0)
        built = timed(
            "build",
            lambda: CompressedStore.build(
                geom.round_set(inputs.compress_points, QUERY_CFG), QUERY_CFG, LOSSY
            ),
            build_load_s,
        )
        unit.built = unit.built or built
        loaded = timed(
            "load", lambda: CompressedStore.load(inputs.query_pqc), build_load_s
        )
        if store is None and loaded is not None:
            store = unit.queried = loaded
            store.counters.reset()
        if store is not None:
            chunk = inputs.ops[r * n_ops // ROUNDS : (r + 1) * n_ops // ROUNDS]
            run_ops(store, chunk, unit, tally, clock, tracer, op_ids)
        for i in (i for i, ir in enumerate(refine_rounds) if ir == r):
            job = refine_calls[i]
            dest = work / f"refined_{job}.pqc"
            argv = refine_argv(inputs.refine_pqc[job], dest)
            t0 = clock.now()
            refine_codes[job] = dest, call("refine", lambda: run_cli(argv), count=i < jobs)
            unit.refine_job_s.setdefault(job, []).append((t0, clock.now()))

    if code == 0:
        unit.compressed = CompressedStore.load(out)
    elif code is not None:
        unit.stage_errors.append(("compress", f"exit code {code}"))
    unit.refined = [None] * jobs
    for job, (dest, code) in sorted(refine_codes.items()):
        if code == 0:
            unit.refined[job] = CompressedStore.load(dest)
        elif code is not None:
            unit.stage_errors.append(("refine", f"exit code {code}"))
    unit.wall_s = clock.busy(t_unit, clock.now())
    if tracer is not None:
        tracer.op_id = 0
    return unit


def run_ops(store, ops, unit: Unit, tally, clock, tracer, op_ids):
    """The closed-loop caller: each op starts when the previous returned."""
    lat = unit.latencies
    answers = unit.answers
    counters = store.counters
    for kind, arg in ops:
        if tracer is not None:
            tracer.op_id = next(op_ids)
        c0 = counters.snapshot()
        k0 = tally.snapshot()
        t0 = clock.now()
        try:
            ans = do_op(store, kind, arg)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            ans = OpError(kind, f"{type(exc).__name__}: {exc}")
        lat[kind].append((t0, clock.now()))
        answers.append(ans)
        _add(unit.counters, kind, {**_delta(counters.snapshot(), c0), **_delta(tally.snapshot(), k0)})


# --- checks ------------------------------------------------------------------


class OracleSource(ArrayPointSource):
    """Uncompressed oracle without recorded heights, kept in step with the
    stream's inserts (splices into ArrayPointSource's sorted lists)."""

    def insert(self, p):
        key = interleave(p, self.cfg)
        i = bisect.bisect_left(self._keys, key)
        self._keys.insert(i, key)
        self._points.insert(i, tuple(p))


def _canonical_polygon(poly):
    poly = list(poly)
    i = poly.index(min(poly))
    return tuple(poly[i:] + poly[:i])


def check_brute(points, v, ans, cfg) -> bool:
    nn_sq, neighbors, polygon, _clip, aspect_sq = ans
    cell = brute_voronoi(points, v, cfg)
    return (
        cell.nn_sq == nn_sq
        and set(cell.neighbors) == set(neighbors)
        and _canonical_polygon(cell.polygon) == _canonical_polygon(polygon)
        and cell.aspect_sq == aspect_sq
    )


@dataclass
class Checks:
    """Ops attempted and failed per op kind or stage, plus the store checks.

    A stage call (compress, build, load, each refine job) is one op; it
    fails when it raised, exited nonzero or failed one of its store checks.
    """

    attempted: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    first_failure: dict = field(default_factory=dict)
    store_checks: list = field(default_factory=list)  # (name, ok)
    brute_cells: int = 0

    def count(self, kind: str, ok: bool, detail=""):
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1
            self.first_failure.setdefault(kind, detail)

    def store_check(self, name: str, ok: bool) -> bool:
        self.store_checks.append((name, ok))
        return ok

    @property
    def stores_ok(self) -> bool:
        return all(ok for _, ok in self.store_checks)


def check_stream(inputs: Inputs, unit: Unit, sizes: Sizes, seed: int, checks: Checks) -> bool:
    """Replay the stream on the oracle; True when the final store matches it."""
    oracle = OracleSource(inputs.stored, QUERY_CFG, presorted=True)
    rng = random.Random(f"brute-{seed}")
    voronoi_idx = [i for i, (k, _) in enumerate(inputs.ops) if k == "voronoi"]
    brute_candidates = set(rng.sample(voronoi_idx, min(len(voronoi_idx), 4 * sizes.brute_cells)))
    brute_done = 0
    for i, ((kind, arg), ans) in enumerate(zip(inputs.ops, unit.answers)):
        if isinstance(ans, OpError):
            checks.count(kind, False, ans.error)
            continue
        if kind in ("square_of", "locate"):
            s = qtree.square_of(arg, oracle)
            checks.count(kind, ans == (s.corner, s.height), f"{kind}{arg}: {ans} != {s}")
        elif kind == "vertices":
            corner, h = arg
            rng_ = qtree.vertices(TrieSquare(corner, h), oracle)
            expect = (rng_.lo, rng_.hi, list(oracle.iter_range(rng_.lo, rng_.hi)))
            checks.count(kind, ans == expect, f"vertices{arg}")
        elif kind == "voronoi":
            ok = ans == cell_answer(qtree.restricted_voronoi(arg, oracle))
            if ok and i in brute_candidates and brute_done < sizes.brute_cells and not ans[3]:
                brute_done += 1
                ok = check_brute(oracle._points, arg, ans, QUERY_CFG)
            checks.count(kind, ok, f"voronoi{arg}")
        else:
            h = qtree.square_of(arg, oracle).height
            expect = (geom.round_point(arg, h, QUERY_CFG.gamma), h)
            checks.count(kind, ans == expect, f"insert{arg}: {ans} != {expect}")
            oracle.insert(ans[0])
    checks.brute_cells = brute_done
    stored = [hp.coords for hp in unit.queried.decode_all()] if unit.queried is not None else None
    return checks.store_check("query store holds the oracle's points", stored == oracle._points)


def check_round_trip(store: CompressedStore) -> bool:
    """load(save(x)) equals x."""
    data = store.to_bytes()
    again = CompressedStore.from_bytes(data)
    return again.decode_all() == store.decode_all() and again.to_bytes() == data


def check_well_spaced(points, rho) -> bool:
    """Aspect ratio at most rho at every vertex, on an uncompressed source."""
    cfg = Config(d=2, w=W, gamma=REFINE_CFG.gamma, rho=rho)
    src = ArrayPointSource(points, cfg)
    bound = src.cfg.rho * src.cfg.rho
    return all(qtree.restricted_voronoi(p, src).aspect_sq <= bound for p in points)


def check_unit(inputs: Inputs, unit: Unit, sizes: Sizes, seed: int) -> Checks:
    checks = Checks()
    errors = {}
    for name, detail in unit.stage_errors:
        errors.setdefault(name, detail.strip().splitlines()[-1])
    have = unit.compressed is not None and unit.built is not None
    ok = checks.store_check(
        "compress output decodes like round_set + build",
        have and unit.compressed.decode_all() == unit.built.decode_all(),
    )
    ok &= checks.store_check(
        "load(save(x)) == x for the compressed store", have and check_round_trip(unit.compressed)
    )
    checks.count("compress", ok and "compress" not in errors, errors.get("compress", "store check"))
    checks.count("build", unit.built is not None, errors.get("build", ""))
    ok = check_stream(inputs, unit, sizes, seed, checks)
    ok &= checks.store_check(
        "load(save(x)) == x for the query store after inserts",
        unit.queried is not None and check_round_trip(unit.queried),
    )
    checks.count("load", ok, errors.get("load", "store check"))
    for job, refined in enumerate(unit.refined):
        pts = [hp.coords for hp in refined.decode_all()] if refined is not None else []
        ok = checks.store_check(
            f"refine job {job} keeps every input point",
            refined is not None and set(inputs.refine_points[job]) <= set(pts),
        )
        ok &= checks.store_check(
            f"refine job {job} output has aspect <= {RHO} at every vertex",
            refined is not None and check_well_spaced(pts, RHO),
        )
        checks.count("refine", ok, errors.get("refine", "store check"))
    return checks


# --- metrics -----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    rank = max(1, -(-len(s) * q // 100))
    return s[int(rank) - 1]


def output_stores(unit: Unit) -> list:
    return [s for s in (unit.compressed, *unit.refined) if s is not None]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(units: list, setup_times: list, clock) -> dict:
    """name -> (value, unit, samples); every time rescaled by ``clock``."""
    lat = {k: [clock.scaled(*t) for u in units for t in u.latencies[k]] for k in OP_KINDS}
    stream_ops = sum(len(u.answers) for u in units)
    # The closed-loop caller's throughput: ops over the time spent in them.
    stream_s = sum(sum(v) for v in lat.values())
    stores = output_stores(units[0])
    bits = sum(s.file_bits() for s in stores)
    points = sum(s.count() for s in stores)

    def stage(name):
        times = [clock.scaled(*t) for u in units for t in u.stage_s[name]]
        return (statistics.median(times) if times else 0.0), "s", len(times)

    def pct(kind, q, scale):
        return percentile(lat[kind], q) * scale if lat[kind] else 0.0

    us, ms = 1e6, 1e3
    return {
        "setup_s": (statistics.median(clock.scaled(*t) for t in setup_times), "s", len(setup_times)),
        "compress_s": stage("compress"),
        "build_s": stage("build"),
        "load_s": stage("load"),
        "bpv_file": (bits / points if points else 0.0, "bits/point", len(stores)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "query_ops_s": (stream_ops / stream_s if stream_s else 0.0, "ops/s", stream_ops),
        "square_of_p50_us": (pct("square_of", 50, us), "us", len(lat["square_of"])),
        "locate_p50_us": (pct("locate", 50, us), "us", len(lat["locate"])),
        "locate_p99_us": (pct("locate", 99, us), "us", len(lat["locate"])),
        "vertices_p50_us": (pct("vertices", 50, us), "us", len(lat["vertices"])),
        "vertices_p99_us": (pct("vertices", 99, us), "us", len(lat["vertices"])),
        # A mean, not a median: over ten seeds the median spread 18% and
        # the mean 4%, while the 95th percentile stayed within 2.5%.
        "voronoi_mean_ms": (
            statistics.fmean(lat["voronoi"]) * ms if lat["voronoi"] else 0.0,
            "ms",
            len(lat["voronoi"]),
        ),
        "voronoi_p95_ms": (pct("voronoi", 95, ms), "ms", len(lat["voronoi"])),
        "insert_p50_us": (pct("insert", 50, us), "us", len(lat["insert"])),
        "refine_s": (
            statistics.median(u.refine_s(clock) for u in units),
            "s",
            sum(len(times) for u in units for times in u.refine_job_s.values()),
        ),
    }


def per_layer(tracer, unit: Unit, traced_wall: float, untraced_wall: float, peaks: dict) -> dict:
    """name -> (value, unit) for the traced run."""
    out = {}
    counts = tracer.counts

    def calls_self(prefix, name):
        calls, self_s = tracer.stat(name)
        out[f"{prefix}.calls"] = (calls, "count")
        out[f"{prefix}.self_s"] = (self_s, "s")
        return calls, self_s

    for side in ("decode", "encode"):
        _, self_s = calls_self(f"codec.{side}", f"codec.{side}")
        pts = sum(c[f"{side}_points"] for c in unit.counters.values())
        bits = sum(c[f"{side}_bits"] for c in unit.counters.values())
        out[f"codec.{side}.points"] = (pts, "count")
        out[f"codec.{side}.bits"] = (bits, "bits")
        out[f"codec.{side}.mpts_s"] = (pts / self_s / 1e6 if self_s else 0.0, "Mpoints/s")
    calls_self("morton.interleave", "morton.interleave")
    calls_self("store.decode_block", "store.decode_block")
    for kind in OP_KINDS:
        c = unit.counters.get(kind)
        n = len(unit.latencies[kind])
        out[f"store.blocks_per_op.{kind}"] = (c["blocks_decoded"] / n if c and n else 0.0, "blocks/op")
    calls_self("store.successor_rank", "store.successor_rank")
    calls_self("store.insert", "store.insert")
    out["store.block_splits"] = (counts["store.block_splits"], "count")
    stores = output_stores(unit)
    n_points = sum(s.count() for s in stores)
    out["store.blocks"] = (sum(s.block_count for s in stores), "count")
    out["store.bpv_payload"] = (
        sum(s.payload_bits() for s in stores) / n_points if n_points else 0.0,
        "bits/point",
    )
    calls_self("qtree.is_crowded", "qtree.is_crowded")
    calls_self("qtree.vertices", "qtree.vertices")
    out["qtree.squares_scanned"] = (sum(c.squares_scanned for c in tracer.counters_seen), "count")
    calls, _ = calls_self("qtree.square_of", "qtree.square_of")
    out["qtree.square_of.shortcut_ratio"] = (
        counts["qtree.square_of.shortcuts"] / calls if calls else 0.0,
        "ratio",
    )
    out["geom.round_set.self_s"] = (tracer.stat("geom.round_set")[1], "s")
    cells, _ = calls_self("geom.clipped_voronoi", "geom.clipped_voronoi")
    calls_self("geom.nearest_neighbor", "geom.nearest_neighbor")
    out["geom.squares_per_cell"] = (counts["geom.cell_squares"] / cells if cells else 0.0, "squares")
    clips, _ = tracer.stat("geom.clip_halfplane")
    out["geom.clip_halfplane.calls"] = (clips, "count")
    out["geom.clip_halfplane.useful_ratio"] = (
        counts["geom.clip_halfplane.useful"] / clips if clips else 0.0,
        "ratio",
    )
    scans = tracer.stat("ingest.read_multiscan")[0]
    out["ingest.passes"] = (len(tracer.pass_s) // scans if scans else 0, "count")
    out["ingest.pass_s"] = (tracer.median_pass_s(), "s")
    out["ingest.parse.self_s"] = (tracer.stat("ingest.parse")[1], "s")
    out["ingest.crowding_tests"] = (
        tracer.calls_under("qtree.is_crowded", "ingest.read_multiscan"),
        "count",
    )
    out["ingest.peak_interim_store_bytes"] = (counts["ingest.peak_interim_store_bytes"], "bytes")
    out["ingest.traced_peak_kb"] = (peaks.get("compress", 0) / 1024, "KB")
    out["refine.rounds"] = (counts["refine.rounds"], "count")
    out["refine.steiner_points"] = (counts["refine.steiner_points"], "count")
    refine_cells = tracer.calls_under("geom.clipped_voronoi", "refine.refine")
    out["refine.cells"] = (refine_cells, "count")
    out_pts = counts["refine.output_points"]
    out["refine.cells_per_vertex"] = (refine_cells / out_pts if out_pts else 0.0, "cells/vertex")
    out["refine.snapshots"] = (tracer.calls_under("store.decode_all", "refine.refine"), "count")
    out["refine.pick_steiner.self_s"] = (tracer.stat("refine.pick_steiner")[1], "s")
    out["refine.self_s"] = (tracer.stat("refine.refine")[1], "s")
    out["refine.traced_peak_kb"] = (peaks.get("refine", 0) / 1024, "KB")
    out["cli.self_s"] = (tracer.stat("cli.main")[1], "s")
    out["trace.overhead_ratio"] = (traced_wall / untraced_wall if untraced_wall else 0.0, "ratio")
    return out
