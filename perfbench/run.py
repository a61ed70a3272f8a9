"""kmfan benchmark: one workload, one seed, one closed loop with one caller.

    python3 perfbench/run.py --workload {roundtrip,ladder,algebra,cli} \
        --seed N --seconds S --trace {0,1}

Run it from a checkout of the repository; it imports kmfan from ``src/``.

``--trace 0`` runs whole rounds of the workload's items until S seconds have
passed, checks every item's output, and prints the end-to-end metrics.
``--trace 1`` runs the first round untraced, then the same items again with
spans around every public kmfan function, and prints the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from hostspeed import HostSpeed
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, ContractViolation, make_workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: fixed per workload so a faster program never changes which percentile is
#: reported; each leaves at least ten samples beyond it in a run at this
#: commit unless the host is in a slow phase (the count is printed beside the
#: value); the ladder holds about 20 items a run, so its tail is the median
TAIL_PERCENTILE = {"roundtrip": 70, "ladder": 50, "algebra": 90, "cli": 95}
SETUP_PROBES = 9


class Api:
    """kmfan names resolved at every use, so installed spans are seen."""

    WHERE = {
        "FgaGroup": "abelian", "GroupHom": "abelian", "dual_hom": "abelian",
        "hom_kernel_cokernel": "abelian", "dd_of_hom": "abelian",
        "kernel_subgroup": "abelian", "image_subgroup": "abelian",
        "Cone": "cones", "AffineMonoid": "monoids",
        "IntMatrix": "intlinalg", "smith_decomposition": "intlinalg",
        "hermite_column_basis": "intlinalg", "rank": "intlinalg",
        "kernel_basis": "intlinalg", "solve_integer": "intlinalg",
        "KmFan": "fans", "LatticeDatum": "fans", "from_classical": "fans",
        "is_tame": "fans", "torsor_group": "fans", "product": "fans",
        "fundamental_group": "fans", "strata": "fans",
        "GsFan": "gsfans", "fold": "gsfans", "is_gs_representable": "gsfans",
        "fold_unfold_roundtrip": "gsfans",
    }

    def __getattr__(self, name):
        if name == "cli_run":
            return sys.modules["kmfan.cli"].run
        return getattr(sys.modules["kmfan." + self.WHERE[name]], name)


def import_kmfan():
    """Import kmfan from this checkout's src/, or exit with status 1 and no
    result when it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "kmfan", "__init__.py")):
        sys.exit("perfbench: no kmfan sources under %s" % src)
    sys.path.insert(0, src)
    import kmfan
    import kmfan.cli  # noqa: F401  (the cli workload and its spans need it loaded)

    if not os.path.abspath(kmfan.__file__).startswith(src + os.sep):
        sys.exit("perfbench: kmfan was imported from %s, not from %s" % (kmfan.__file__, src))


def attempt(wl, item, api):
    """One item's library work, ending with a collection of the cyclic garbage
    it left.  Each item pays for its own garbage and the next one starts from
    the same heap; otherwise an item's time depends on the items before it
    (seen as 1.4 s against 2.3 s for the same product fan)."""
    try:
        result = wl.run(item, api)
    except Exception as exc:  # the item fails; the loop goes on and counts it
        result = {"raised": "%s: %s" % (type(exc).__name__, exc)}
    gc.collect()
    return result


class Outcomes:
    """Latency and check outcome of every item run."""

    def __init__(self):
        self.kinds = []
        self.starts = []
        self.latencies = []
        self.failed = []       # (item kind, message)
        self.violations = []   # malformed-input case names
        self.results = []      # plain results, in order

    def add(self, wl, item, result, start, latency):
        self.kinds.append(item.kind)
        self.starts.append(start)
        self.latencies.append(latency)
        self.results.append(result)
        try:
            message = wl.check(item, result)
        except ContractViolation:
            self.violations.append(item.data["case"])
            return
        except Exception as exc:  # a check that crashes is a failed item
            message = "check raised %s: %s" % (type(exc).__name__, exc)
        if message is not None:
            self.failed.append((item.kind, message))


def timed_loop(wl, api, seconds, host):
    """Whole rounds, cycling through the drawn rounds, until `seconds` passed;
    host-speed samples are taken between items."""
    out = Outcomes()
    clock = time.perf_counter
    start = clock()
    r = 0
    while True:
        for item in wl.rounds[r % len(wl.rounds)]:
            t0 = clock()
            result = attempt(wl, item, api)
            t1 = clock()
            host.after_item(t1 - t0)
            out.add(wl, item, result, t0, t1 - t0)
        r += 1
        if clock() - start >= seconds:
            host.sample()
            return out, r


def measure_setup(workload, seed):
    """Median time from process start to the first timed item, over fresh
    processes that import kmfan and build the inputs."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            sys.exit("perfbench: setup probe failed")
        times.append(t1 - t0)
    return statistics.median(times)


def tail(latencies, pct):
    ordered = sorted(latencies)
    rank = max(1, -(-pct * len(ordered) // 100))  # nearest rank
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(args, wl, api):
    host = HostSpeed()
    host.sample()
    probes_at = time.perf_counter()
    setup_raw = measure_setup(args.workload, args.seed)
    host.sample()
    out, rounds = timed_loop(wl, api, args.seconds, host)
    n = len(out.latencies)
    corrected = [d / host.factor_at(t) for t, d in zip(out.starts, out.latencies)]
    verified = n - len(out.failed) - len(out.violations)
    pct = TAIL_PERCENTILE[args.workload]
    metrics, raw = {}, {}
    for lat, into in ((corrected, metrics), (out.latencies, raw)):
        tail_s, beyond = tail(lat, pct)
        into["items_per_s"] = (verified / sum(lat), "1/s")
        into["item_ms_p50"] = (statistics.median(lat) * 1e3, "ms")
        into["item_ms_tail"] = (tail_s * 1e3, "ms")
    metrics["setup_s"] = (setup_raw / host.factor_at(probes_at), "s")
    raw["setup_s"] = (setup_raw, "s")
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    failed_ratio = (len(out.failed) + len(out.violations)) / n
    print("workload %s seed %d inputs %s: %d rounds of %d items, %d items, %.2f s busy"
          % (args.workload, args.seed, wl.digest(), rounds, wl.round_len, n, sum(out.latencies)))
    print("host speed: %d kernel samples, median slowdown %.3f against the reference"
          % (len(host.samples), host.median_factor()))
    for name, (value, unit) in metrics.items():
        note = ""
        if name in raw:
            note = "  (raw %.6g)" % raw[name][0]
        if name == "item_ms_tail":
            note += "  (p%d, %d samples beyond, of %d)" % (pct, beyond, n)
        elif name == "setup_s":
            note += "  (median of %d fresh processes)" % SETUP_PROBES
        print("%-14s %12.6g %s%s" % (name, value, unit, note))
    print("%-14s %12.6g 1  (%d failed + %d contract violations, of %d attempted)"
          % ("failed_ratio", failed_ratio, len(out.failed), len(out.violations), n))
    by_kind = {}
    for kind, ms in zip(out.kinds, corrected):
        by_kind.setdefault(kind, []).append(ms * 1e3)
    print("median ms by kind: " + ", ".join(
        "%s %.4g" % (kind, statistics.median(v)) for kind, v in by_kind.items()))
    if out.violations:
        names = sorted(set(out.violations))
        print("contract violations: " + ", ".join(
            "%s x%d" % (c, out.violations.count(c)) for c in names))
    for kind, message in out.failed[:10]:
        print("FAILED %s: %s" % (kind, message))
    return out, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(args, wl, api):
    """The first round untraced, then traced; checks run after both loops so
    that the traced wall time holds only item work."""
    items = wl.rounds[0]
    clock = time.perf_counter
    host = HostSpeed()
    host.sample()
    plain_start = clock()
    plain = [attempt(wl, item, api) for item in items]
    untraced_s = clock() - plain_start
    host.sample()
    tracer = Tracer()
    tracer.install()
    timed = []
    start = clock()
    try:
        for item in items:
            timed.append(tracer.root(item.id, attempt, wl, item, api))
    finally:
        wall = clock() - start
        tracer.uninstall()
    host.sample()
    # both passes corrected for the host speed around them, as in end_to_end
    overhead = (wall / host.factor_at(start)) / (untraced_s / host.factor_at(plain_start))
    out = Outcomes()
    for item, (result, t0, t1) in zip(items, timed):
        out.add(wl, item, result, t0, t1 - t0)
    mismatched = sum(a != b for a, (b, _, _) in zip(plain, timed))
    metrics = layer_metrics(tracer.aggregate(), tracer)
    metrics["bench.wall_s"] = (wall, "s")
    metrics["bench.result_mismatches"] = (mismatched, "count")
    metrics["trace.overhead"] = (overhead, "1")
    metrics["cli.contract_violations"] = (len(out.violations), "count")
    spans_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, "spans-%s.tsv.gz" % args.workload)
    tracer.write_spans(spans_path)
    print("workload %s seed %d inputs %s: traced round of %d items, %d spans in %s"
          % (args.workload, args.seed, wl.digest(), len(items), len(tracer.s_name),
             os.path.relpath(spans_path, ROOT)))
    print("tracing overhead %.3f (traced %.3f s / untraced %.3f s raw, same items)"
          % (overhead, wall, untraced_s))
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    if out.violations:
        print("contract violations: " + ", ".join(out.violations))
    if mismatched:
        print("FAILED %d items gave different results traced and untraced" % mismatched)
    for kind, message in out.failed[:10]:
        print("FAILED %s: %s" % (kind, message))
    return out, mismatched, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


#: function-level metrics: (metric prefix, span name, fields)
FUNCTIONS = [
    ("fans.validate", "fans.KmFan.validate", ("calls", "self_s")),
    ("cones.from_generators", "cones.Cone.from_generators", ("calls", "self_s")),
    ("cones.intersect", "cones.Cone.intersect", ("calls",)),
    ("cones.faces", "cones.Cone.faces", ("calls",)),
    ("cones.is_face_of", "cones.Cone.is_face_of", ("calls",)),
    ("cones.dim", "cones.Cone.dim", ("calls",)),
    ("intlinalg.rank", "intlinalg.rank", ("self_s",)),
    ("intlinalg.smith_decomposition", "intlinalg.smith_decomposition", ("calls", "self_s")),
    ("intlinalg.hermite_column_basis", "intlinalg.hermite_column_basis", ("calls",)),
    ("intlinalg.solve_rational", "intlinalg.solve_rational", ("calls",)),
    ("abelian.hom_kernel_cokernel", "abelian.hom_kernel_cokernel", ("calls",)),
    ("abelian.present_quotient", "abelian.present_quotient", ("self_s",)),
    ("abelian.dd_of_hom", "abelian.dd_of_hom", ("self_s",)),
    ("monoids.hilbert_basis", "monoids.AffineMonoid.hilbert_basis", ("calls", "self_s")),
    ("gsfans.lattice_data_colimit", "gsfans.lattice_data_colimit", ("calls", "self_s")),
    ("gsfans.unfold", "gsfans.unfold", ("self_s",)),
    ("fans.atoroidal_split", "fans.atoroidal_split", ("self_s",)),
    ("documents.fan_from_obj", "documents.fan_from_obj", ("self_s",)),
    ("documents.dumps", "documents.dumps", ("self_s",)),
    ("cli.run", "cli.run", ("calls",)),
    ("drawing.draw_fan_svg", "drawing.draw_fan_svg", ("self_s",)),
]


def layer_metrics(stats, tracer):
    metrics = {}
    for layer in LAYERS:
        rows = [s for s in stats.values() if s["layer"] == layer and not s["counted"]]
        metrics[layer + ".calls"] = (sum(s["calls"] for s in rows), "count")
        metrics[layer + ".self_s"] = (sum(s["self_s"] for s in rows), "s")
        metrics[layer + ".errors"] = (sum(s["errors"] for s in rows), "count")
    metrics["bench.self_s"] = (sum(s["self_s"] for s in stats.values() if s["layer"] == "bench"), "s")

    def get(span, field):
        return stats.get(span, {}).get(field, 0)

    for prefix, span, fields in FUNCTIONS:
        for field in fields:
            metrics["%s.%s" % (prefix, field)] = (get(span, field), "s" if field == "self_s" else "count")
    fans_new = get("fans.KmFan.new", "calls")
    metrics["fans.KmFan.new"] = (fans_new, "count")
    metrics["fans.validate.per_fan"] = (get("fans.KmFan.validate", "calls") / fans_new if fans_new else 0.0, "1")
    made = get("cones.Cone.from_generators", "calls")
    metrics["cones.from_generators.distinct_ratio"] = (len(tracer.cones_made) / made if made else 0.0, "1")
    metrics["intlinalg.max_bits"] = (tracer.max_bits, "bits")
    metrics["intlinalg.IntMatrix.new"] = (get("intlinalg.IntMatrix.new", "calls"), "count")
    metrics["cli.exit_nonzero"] = (tracer.exit_nonzero, "count")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error("workload must be one of " + ", ".join(WORKLOADS))
    import_kmfan()
    wl = make_workload(args.workload, args.seed, ROOT)
    # set-up objects live for the whole run; keep the per-item collections
    # from traversing them
    gc.collect()
    gc.freeze()
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        api = Api()
        if args.trace:
            out, mismatched, metrics = per_layer(args, wl, api)
        else:
            out, metrics = end_to_end(args, wl, api)
            mismatched = 0
    finally:
        wl.close()
    failed = len(out.failed) + mismatched
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(out.latencies),
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
