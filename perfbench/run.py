#!/usr/bin/env python3
"""TeleKit end-to-end benchmark.

Builds the program from source, runs one workload against it, checks the
program's answers against computations made here, and prints one JSON
object as the last line of stdout:

    python3 perfbench/run.py --workload fleet_open_mix --seed 1 \
        --seconds 20 --trace 0

Workloads (README.md has the full description):
  fleet_open_mix                open-loop Poisson mix through telekit_router
                                to two telekit_serve replicas
  replica_encode_saturate       closed loop, unique fp32 rca texts, one
                                --no-index replica
  replica_encode_saturate_int8  the same at int8 precision
  stream_replay                 async StreamPipeline over seeded synth replays

--trace 0 prints the end-to-end metrics, measured on the workload's own
traffic. --trace 1 runs the layer tour instead (traced fleet, traced
saturated replica, stream pass and in-process layer timings) and prints
every per-layer metric.

Runs from the root of a checkout; builds into .bench_build/perfbench and
writes scratch files under .bench_build/perfbench/run-<pid>, removed on exit.
"""

import argparse
import bisect
import json
import math
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
import urllib.request

T0 = time.monotonic()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TARGETS = ["telekit_serve_bin", "telekit_router_bin", "pb_load", "pb_layers"]

# Workload constants. The daemons are sized to the 4 cores the benchmark
# assumes: one busy thread per core (workers x intra-op compute threads).
# Every other flag keeps its default, so a change to a default shows up here.
INDEX_TICKETS = 2000          # corpus = 48 alarms + 24 KPIs + 14 signaling + tickets
FLEET_REPLICA_FLAGS = ["--index-tickets=%d" % INDEX_TICKETS, "--workers=2",
                       "--compute-threads=1"]
SATURATE_REPLICA_FLAGS = ["--no-index", "--workers=4", "--compute-threads=1"]
POOL_SIZE = 100000            # distinct fleet texts, far above a replica's 4096-entry
                              # cache: the hot head stays cached, the tail churns
ZIPF_S = 1.0                  # text popularity skew
FLEET_RATE = 250.0            # fixed open-loop rate, req/s (under a tenth of capacity)
WARMUP_REQUESTS = 2000        # at FLEET_RATE through the same router before anything
                              # is measured: fills the caches with the hot head
TRACE_FLEET_S = 10            # fleet phase of the traced run, s of FLEET_RATE arrivals
CONNS, WINDOW = 4, 16         # client connections, outstanding per connection
# The router carries at most two requests at once and does not hedge: then
# no request can meet a stale pooled upstream connection on both replicas
# (README, "Known faults"), so no routed request fails at random.
ROUTER_CONNS, FLEET_WINDOW = 2, 1
ROUTER_FLAGS = ["--no-hedge"]
LULL_IDLE_S = 2.0             # idle time of a lull probe (one per measured second)
VERIFY_TEXTS = 48             # texts whose replies are checked against exact search
RECALL_BOUND = 0.6            # mean recall@10 of retrieve against exact search
                              # (measured about 0.76 on the served corpus; README)
SATURATE_WINDOW = 8           # outstanding per connection: 32 in flight fills batches
SATURATE_SLICE_S = 1.0        # length of one slice; the first warms up
OP_MIX = [("rca", 0.4), ("encode", 0.2), ("retrieve", 0.2), ("troubleshoot", 0.2)]
INT8_SHARE = 0.25             # of rca and encode requests


def log(*parts):
    print("[perfbench %.1fs]" % (time.monotonic() - T0), *parts, file=sys.stderr,
          flush=True)


class BenchError(Exception):
    pass


# pb_load gives up after 150 s (kTimeoutS in load.cc); one call may take 170 s.
LOAD_TIMEOUT_S = 170


# --------------------------------------------------------------- build ----

def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"])
    run_checked(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 4),
                 "--target"] + TARGETS)


def run_checked(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def binary(name):
    paths = {"telekit_serve": "telekit/serve/telekit_serve",
             "telekit_router": "telekit/route/telekit_router",
             "pb_load": "pb_load", "pb_layers": "pb_layers"}
    return os.path.join(BUILD_DIR, paths[name])


# ------------------------------------------------------------ processes ----

class Daemons:
    """Every daemon this run started; stop() runs on every exit path."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.procs = []  # (name, Popen, admin_port)

    def start(self, name, argv, admin_port):
        errlog = open(os.path.join(self.workdir, name + ".log"), "wb")
        env = {k: v for k, v in os.environ.items() if k != "TELEKIT_CACHE"}
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=errlog, stderr=errlog, env=env)
        errlog.close()
        self.procs.append((name, proc, admin_port))
        return proc

    def peak_rss_mb(self):
        total = 0.0
        for _, proc, _ in self.procs:
            with open("/proc/%d/status" % proc.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += float(line.split()[1]) / 1024.0
        return total

    def stop(self):
        """Stops every daemon: /quitquitquit, then a kill for any still
        running after 5 s, then waits for each."""
        for _, proc, admin in self.procs:
            if proc.poll() is None:
                try:
                    http_get(admin, "/quitquitquit", timeout=1.0)
                except Exception:
                    pass
        deadline = time.monotonic() + 5.0
        for _, proc, _ in self.procs:
            try:
                proc.wait(timeout=max(0.05, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.procs = []

    def check_alive(self):
        for name, proc, _ in self.procs:
            if proc.poll() is not None:
                raise BenchError("%s exited with %s" % (name, proc.returncode))


def free_ports(n):
    socks = []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def http_get(port, path, timeout=2.0):
    with urllib.request.urlopen("http://127.0.0.1:%d%s" % (port, path),
                                timeout=timeout) as resp:
        return resp.status, resp.read().decode()


def wait_until(predicate, daemons, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        daemons.check_alive()
        try:
            if predicate():
                return
        except Exception:
            pass
        time.sleep(0.005)
    raise BenchError("daemons not ready after %.0f s" % timeout)


def ready(admin_port):
    try:
        return http_get(admin_port, "/readyz", timeout=1.0)[0] == 200
    except Exception:
        return False


def start_replica(daemons, name, extra):
    port, admin = free_ports(2)
    daemons.start(name, [binary("telekit_serve"), "--port=%d" % port,
                         "--admin-port=%d" % admin] + extra, admin)
    return port, admin


def start_router(daemons, reps):
    """Starts the router in front of `reps`; returns its (port, admin)."""
    port, admin = free_ports(2)
    daemons.start("router", [binary("telekit_router"), "--port=%d" % port,
                             "--admin-port=%d" % admin] + ROUTER_FLAGS +
                  ["--replica=%d:%d" % r for r in reps], admin)

    def routable():
        fleet = json.loads(http_get(admin, "/fleetz")[1])
        return ready(admin) and fleet["routable"] == len(reps)
    wait_until(routable, daemons)
    return port, admin


def start_fleet(daemons):
    """Two indexed replicas and a router, which then serves every routed
    phase of the run. Returns (setup_s, replicas, router)."""
    start = time.monotonic()
    reps = [start_replica(daemons, "replica%d" % i,
                          FLEET_REPLICA_FLAGS) for i in range(2)]
    wait_until(lambda: all(ready(a) for _, a in reps), daemons)
    router = start_router(daemons, reps)
    return time.monotonic() - start, reps, router


def start_saturate_replica(daemons):
    start = time.monotonic()
    port, admin = start_replica(daemons, "replica", SATURATE_REPLICA_FLAGS)
    wait_until(lambda: ready(admin), daemons)
    return time.monotonic() - start, port, admin


# --------------------------------------------------------------- inputs ----

def load_corpus():
    out = subprocess.run([binary("pb_layers"), "docs", "--tickets=%d" % INDEX_TICKETS],
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise BenchError("pb_layers docs failed: " + out.stderr[-500:])
    return json.loads(out.stdout.strip().splitlines()[-1])


def fleet_pool(rng, corpus):
    """POOL_SIZE distinct fault descriptions in random popularity order."""
    alarms, kpis = corpus["alarms"], corpus["kpis"]
    templates = ["{a}", "{a} with {k} degraded", "{a} after {b}", "{k} degraded on {a}",
                 "{a} and {b} with {k} degraded", "{a} and {b} with {k} and {l} degraded"]
    pool, seen = [], set()
    while len(pool) < POOL_SIZE:
        text = rng.choice(templates).format(a=rng.choice(alarms), b=rng.choice(alarms),
                                            k=rng.choice(kpis), l=rng.choice(kpis))
        if text not in seen:
            seen.add(text)
            pool.append(text)
    return pool


def zipf_sampler(rng, pool):
    cdf, acc = [], 0.0
    for i in range(len(pool)):
        acc += 1.0 / (i + 1) ** ZIPF_S
        cdf.append(acc)
    return lambda: pool[min(len(pool) - 1, bisect.bisect_left(cdf, rng.random() * acc))]


def mix_request(rng, text, rid):
    r, op = rng.random(), OP_MIX[-1][0]
    for name, share in OP_MIX:
        if r < share:
            op = name
            break
        r -= share
    req = {"id": rid, "op": op, "text": text}
    if op in ("retrieve", "troubleshoot"):
        req["top_k"] = 10
    elif op == "rca":
        req["top_k"] = 5
    if op in ("rca", "encode") and rng.random() < INT8_SHARE:
        req["precision"] = "int8"
    return req


def poisson_schedule(rng, n, rate, start_us=20000):
    t, due = float(start_us), []
    for _ in range(n):
        t += rng.expovariate(rate) * 1e6
        due.append(int(t))
    return due


def unique_texts(rng, corpus, n, taken):
    """n texts of six catalogue words each, none seen before (cache misses)."""
    words = sorted({w for name in corpus["alarms"] + corpus["kpis"] for w in name.split()})
    out = []
    while len(out) < n:
        text = " ".join(rng.choice(words) for _ in range(6))
        if text not in taken:
            taken.add(text)
            out.append(text)
    return out


# ----------------------------------------------------------------- load ----

class Load:
    """Runs pb_load phases and keeps the attempted/failed tally."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.phase = 0

    def run(self, mode, endpoints, rows, window, seconds=None, ring=None, count=True):
        """rows: (due_us, target, request dict). Returns (results, elapsed_s);
        results[i] = (late_us, latency_us or None, reply dict or error str).
        count=False leaves the results out of the tally."""
        self.phase += 1
        sched = os.path.join(self.workdir, "sched%d.tsv" % self.phase)
        res = os.path.join(self.workdir, "res%d.tsv" % self.phase)
        with open(sched, "w") as f:
            for due, target, req in rows:
                f.write("%d\t%s\t%s\n" % (due, target, json.dumps(req)))
        argv = [binary("pb_load"), "--mode=" + mode, "--window=%d" % window,
                "--in=" + sched, "--out=" + res]
        argv += ["--endpoint=%d:%d" % e for e in endpoints]
        if seconds:
            argv.append("--seconds=%g" % seconds)
        if ring:
            argv.append("--ring=" + ",".join(str(p) for p in ring))
        out = subprocess.run(argv, capture_output=True, text=True, timeout=LOAD_TIMEOUT_S)
        if out.returncode != 0:
            raise BenchError("pb_load failed: " + out.stderr[-500:])
        summary = dict(kv.split("=") for kv in out.stdout.split())
        results = []
        with open(res) as f:
            for line in f:
                _, late, lat, reply = line.rstrip("\n").split("\t", 3)
                lat = int(lat)
                if lat >= 0:
                    parsed = json.loads(reply)
                    if not parsed.get("ok"):
                        lat, parsed = -1, "not ok: " + reply[:200]
                else:
                    parsed = reply
                results.append((int(late), lat / 1000.0 if lat >= 0 else None, parsed))
        if count:
            self.tally(results)
        return results, float(summary["elapsed_s"])

    def tally(self, results):
        self.attempted += len(results)
        self.failed += sum(1 for r in results if r[1] is None)


def quantile(values, q):
    v = sorted(values)
    if not v:
        return float("nan")
    pos = q * (len(v) - 1)
    lo = int(math.floor(pos))
    hi = min(len(v) - 1, lo + 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def latencies(results):
    return [r[1] for r in results if r[1] is not None]


# --------------------------------------------------------- verification ----

def cosine(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb) if na > 0 and nb > 0 else 0.0


class Verifier:
    """Checks replies against exact cosine search over `encode` vectors."""

    def __init__(self, catalogue, catalogue_vecs, doc_vecs, docs):
        # The served catalogue may repeat a name; exact search ranks every
        # entry, as the engine does.
        self.entries = [(n, catalogue_vecs[n]) for n in catalogue]
        self.cat = catalogue_vecs          # name -> vector
        self.docs = {d["id"]: d for d in docs}
        self.doc_vecs = doc_vecs           # id -> vector (may be empty)
        self.failures = []
        self.recall = []

    def fail(self, what):
        if len(self.failures) < 20:
            self.failures.append(what)

    def ranking(self, text, qvec, results, k, tol=1e-4):
        exact = sorted(((cosine(qvec, v), n) for n, v in self.entries), reverse=True)
        exact = exact[:k]
        if len(results) != len(exact):
            return self.fail("%s: %d results, want %d" % (text, len(results), len(exact)))
        for i, item in enumerate(results):
            if abs(item["score"] - exact[i][0]) > tol:
                return self.fail("%s: rank %d score %.6f, exact %.6f" %
                                 (text, i, item["score"], exact[i][0]))
            if abs(item["score"] - cosine(qvec, self.cat[item["name"]])) > tol:
                return self.fail("%s: %s score %.6f is not its cosine" %
                                 (text, item["name"], item["score"]))

    def retrieve(self, text, qvec, docs, k, count_recall=True):
        scores = [d["score"] for d in docs]
        if any(b > a + 1e-6 for a, b in zip(scores, scores[1:])):
            self.fail("%s: retrieve scores do not descend" % text)
        for d in docs:
            if abs(d["score"] - cosine(qvec, self.doc_vecs[d["doc_id"]])) > 1e-4:
                return self.fail("%s: doc %d score is not its cosine" % (text, d["doc_id"]))
        if not count_recall:
            return
        # A returned doc counts as found when its exact cosine reaches the
        # k-th best (near-identical tickets tie within float noise).
        kth = sorted((cosine(qvec, v) for v in self.doc_vecs.values()), reverse=True)[k - 1]
        found = sum(1 for d in docs if cosine(qvec, self.doc_vecs[d["doc_id"]]) >= kth - 1e-6)
        self.recall.append(min(found, k) / float(k))

    def troubleshoot(self, text, qvec, reply, retrieve_reply):
        got = [(d["doc_id"], d["score"]) for d in reply["docs"]]
        want = [(d["doc_id"], d["score"]) for d in retrieve_reply["docs"]]
        if [g[0] for g in got] != [w[0] for w in want] or any(
                abs(g[1] - w[1]) > 1e-5 for g, w in zip(got, want)):
            self.fail("%s: troubleshoot docs differ from retrieve docs" % text)
        evidence = {a for d in reply["docs"] for a in self.docs[d["doc_id"]]["evidence"]}
        evidence &= set(self.cat)
        if evidence:
            stray = [r["name"] for r in reply["results"] if r["name"] not in evidence]
            if stray:
                self.fail("%s: verdict %s is not evidence of a returned doc" % (text, stray))
        else:  # documented fallback: RCA over the whole catalogue
            self.ranking(text, qvec, reply["results"], len(reply["results"]))


def same_reply(a, b, tol=1e-5):
    """A routed reply against the named replica's direct reply."""
    if a.get("op") != b.get("op"):
        return False
    if "vector" in a:
        return len(a["vector"]) == len(b.get("vector", [])) and all(
            abs(x - y) <= tol for x, y in zip(a["vector"], b["vector"]))
    for key, ident in (("results", "name"), ("docs", "doc_id")):
        x, y = a.get(key, []), b.get(key, [])
        if len(x) != len(y) or any(p[ident] != q[ident] or abs(p["score"] - q["score"]) > tol
                                   for p, q in zip(x, y)):
            return False
    return True


def encode_all(load, port, texts, precision=None):
    rows = []
    for i, t in enumerate(texts):
        req = {"id": i, "op": "encode", "text": t}
        if precision:
            req["precision"] = precision
        rows.append((0, 0, req))
    results, _ = load.run("closed", [(port, CONNS)], rows, WINDOW, count=False)
    vecs = {}
    for t, r in zip(texts, results):
        if r[1] is None:
            raise BenchError("encode failed for %r: %s" % (t, r[2]))
        vecs[t] = r[2]["vector"]
    return vecs


# ------------------------------------------------------------ workloads ----

def fleet_inputs(seed, corpus, seconds):
    rng = random.Random(seed)
    pool = fleet_pool(rng, corpus)
    draw = zipf_sampler(rng, pool)
    warmup = [(d, 0, mix_request(rng, draw(), i))
              for i, d in enumerate(poisson_schedule(rng, WARMUP_REQUESTS, FLEET_RATE))]
    n = int(round(FLEET_RATE * seconds))
    due = poisson_schedule(rng, n, FLEET_RATE, start_us=warmup[-1][0])
    measured = [(d, 0, mix_request(rng, draw(), i)) for i, d in enumerate(due)]
    verify = []
    for _, _, req in measured:
        if req["text"] not in verify:
            verify.append(req["text"])
        if len(verify) == VERIFY_TEXTS:
            break
    return rng, warmup, measured, verify


def lull_probes(port, n):
    """n probes, CONNS at a time: each connection sends one request (one
    connection at a time), the batch idles LULL_IDLE_S, and each sends
    again. Returns (whether each opening request got a reply line, whether
    each request after the lull did)."""
    req = (json.dumps({"id": 0, "op": "rca", "text": "lull probe", "top_k": 5}) + "\n").encode()
    openers, outcomes = [], []
    for first in range(0, n, CONNS):
        conns = [socket.create_connection(("127.0.0.1", port), timeout=5)
                 for _ in range(min(CONNS, n - first))]
        files = [c.makefile("rwb") for c in conns]
        for f in files:
            f.write(req)
            f.flush()
            openers.append(bool(f.readline()))
        time.sleep(LULL_IDLE_S)
        for f in files:
            try:
                f.write(req)
                f.flush()
                outcomes.append(bool(f.readline()))
            except OSError:
                outcomes.append(False)
        for f, c in zip(files, conns):
            f.close()
            c.close()
    return openers, outcomes


def run_fleet(args, workdir, daemons):
    corpus = load_corpus()
    _, warmup, measured, verify = fleet_inputs(args.seed, corpus, args.seconds)
    setup_s, reps, (router_port, router_admin) = start_fleet(daemons)
    log("fleet ready in %.2f s" % setup_s)
    load = Load(workdir)

    # Verification traffic: every op on the verify texts through the
    # router, then each routed reply again straight to the replica that
    # served it.
    vreqs = []
    for t in verify:
        vreqs += [{"op": op, "text": t, "top_k": k} for op, k in
                  (("rca", 5), ("eap", 5), ("fct", 5), ("retrieve", 10), ("troubleshoot", 10))]
        vreqs += [{"op": "encode", "text": t}, {"op": "encode", "text": t, "precision": "int8"}]
    for i, r in enumerate(vreqs):
        r["id"] = i
    # Warm-up, measured phase and verification go through the router as one
    # schedule, so the router never idles between them: its pooled upstream
    # connections go stale after 1 s idle (README, "Known faults").
    gap_us = int(1e6 / FLEET_RATE)
    vrows = [(measured[-1][0] + (i + 1) * gap_us, 0, r) for i, r in enumerate(vreqs)]
    all_routed, _ = load.run("open", [(router_port, ROUTER_CONNS)], warmup + measured + vrows,
                             FLEET_WINDOW, count=False)
    openers, lull = lull_probes(router_port, args.seconds)
    warm_failed = sum(1 for r in all_routed[:len(warmup)] if r[1] is None)
    results = all_routed[len(warmup):len(warmup) + len(measured)]
    routed = all_routed[len(warmup) + len(measured):]
    # The tally is whole rounds, one per measured second: FLEET_RATE
    # measured requests and the request after one lull probe. The other
    # traffic is checked instead.
    load.tally(results)
    load.attempted += len(lull)
    load.failed += lull.count(False)
    lats = latencies(results)
    for r in results:
        if r[1] is None:
            log("measured request failed:", str(r[2])[:300])
    # The measured phase runs from its first due time to its last reply.
    elapsed = (max(row[0] / 1e3 + r[1] for row, r in zip(measured, results) if r[1] is not None)
               - measured[0][0] / 1e3) / 1e3
    route = prom(http_get(router_admin, "/metrics")[1])
    by_port = {"127.0.0.1:%d" % p: p for p, _ in reps}
    direct_rows = []
    for r, res in zip(vreqs, routed):
        if res[1] is not None:
            direct_rows.append((0, [p for p, _ in reps].index(by_port[res[2]["routed"]["replica"]]), r))
    direct, _ = load.run("open", [(p, 1) for p, _ in reps], direct_rows, WINDOW, count=False)
    cat_vecs = encode_all(load, reps[0][0], corpus["alarms"])
    doc_texts = [d["text"] for d in corpus["docs"]]
    doc_by_text = encode_all(load, reps[0][0], doc_texts)
    doc_vecs = {d["id"]: doc_by_text[d["text"]] for d in corpus["docs"]}
    build_ms = [json.loads(http_get(a, "/statusz")[1])["index"]["build_ms"] for _, a in reps]
    peak_rss = daemons.peak_rss_mb()
    daemons.stop()

    v = Verifier(corpus["alarms"], cat_vecs, doc_vecs, corpus["docs"])
    if warm_failed:
        v.fail("%d warm-up requests failed" % warm_failed)
    if not all(openers):
        v.fail("%d lull probes got no reply to their opening request" % openers.count(False))
    replies = {}
    for r, res in zip(vreqs, routed):
        if res[1] is None:
            v.fail("verification request failed: %s" % (res[2],))
            continue
        replies[(r["op"], r["text"], r.get("precision"))] = res[2]
    for (row, res) in zip(direct_rows, direct):
        key = (row[2]["op"], row[2]["text"], row[2].get("precision"))
        if res[1] is None or not same_reply(replies.get(key, {}), res[2]):
            v.fail("routed reply differs from the replica's direct reply: %s" % (key,))
    qvecs = {}
    for t in verify:
        fp32 = replies.get(("encode", t, None))
        int8 = replies.get(("encode", t, "int8"))
        if not fp32 or not int8:
            continue
        qvecs[t] = fp32["vector"]
        if cosine(fp32["vector"], int8["vector"]) < 0.98:
            v.fail("%s: int8/fp32 cosine %.4f" % (t, cosine(fp32["vector"], int8["vector"])))
        for op in ("rca", "eap", "fct"):
            if (op, t, None) in replies:
                v.ranking(t, qvecs[t], replies[(op, t, None)]["results"], 5)
        if ("retrieve", t, None) in replies:
            v.retrieve(t, qvecs[t], replies[("retrieve", t, None)]["docs"], 10)
            if ("troubleshoot", t, None) in replies:
                v.troubleshoot(t, qvecs[t], replies[("troubleshoot", t, None)],
                               replies[("retrieve", t, None)])
    # Replies produced under load, for the verified texts.
    checked = 0
    for (_, _, req), res in zip(measured, results):
        t = req["text"]
        if res[1] is None or t not in qvecs or req.get("precision"):
            continue
        checked += 1
        if req["op"] == "rca":
            v.ranking(t, qvecs[t], res[2]["results"], 5)
        elif req["op"] == "retrieve":  # recall is averaged over distinct texts
            v.retrieve(t, qvecs[t], res[2]["docs"], 10, count_recall=False)
        elif req["op"] == "troubleshoot" and ("retrieve", t, None) in replies:
            v.troubleshoot(t, qvecs[t], res[2], replies[("retrieve", t, None)])
        elif req["op"] == "encode" and cosine(res[2]["vector"], qvecs[t]) < 1 - 1e-6:
            v.fail("%s: encode vector differs under load" % t)
    recall = sum(v.recall) / max(1, len(v.recall))
    if recall < RECALL_BOUND:
        v.fail("retrieve recall@10 %.3f below %.2f" % (recall, RECALL_BOUND))
    for f in v.failures:
        log("CHECK FAILED:", f)
    log("measured %d requests (%d failed) in %.2f s, %d replies checked under load, "
        "recall@10 %.3f, %d of %d lull probes answered, index build %s ms, router %s" %
        (len(results), len(results) - len(lats), elapsed, checked, recall, lull.count(True),
         len(lull), build_ms,
         {k: route.get("telekit_route_" + k)
          for k in ("requests", "retries", "no_healthy", "ejections")}))
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": quantile(lats, 0.50),
        "throughput_rps": len(lats) / elapsed,
        "peak_rss_mb": peak_rss,
    }
    return not v.failures, load.attempted, load.failed, metrics


def run_saturate(args, workdir, daemons, precision=None):
    """Closed loop of unique rca texts at one precision (None = fp32)."""
    corpus = load_corpus()
    setup_s, port, admin = start_saturate_replica(daemons)
    log("replica ready in %.2f s" % setup_s)
    rng = random.Random(args.seed)
    taken = set()
    load = Load(workdir)
    # The run is cut into 1 s slices and reports the median slice's rate;
    # the first slice warms the replica and is not reported.
    rates, lats, check = [], [], None
    for k in range(1 + max(2, args.seconds)):
        # More texts than a slice can consume at 12k req/s.
        texts = unique_texts(rng, corpus, int(12000 * SATURATE_SLICE_S), taken)
        rows = []
        for i, t in enumerate(texts):
            req = {"id": i, "op": "rca", "text": t, "top_k": 5}
            if precision:
                req["precision"] = precision
            rows.append((0, 0, req))
        results, elapsed = load.run("closed", [(port, CONNS)], rows, SATURATE_WINDOW,
                                    seconds=SATURATE_SLICE_S)
        done = latencies(results)
        if len(done) == len(texts):
            raise BenchError("slice ran out of texts; raise the text count")
        if k >= 1:
            rates.append(len(done) / elapsed)
            lats += done
        hits = sum(1 for r in results if r[1] is not None and r[2]["cache_hit"])
        if hits:
            log("slice %d: %d cache hits on unique texts" % (k, hits))
        check = check or (texts[:VERIFY_TEXTS], results[:VERIFY_TEXTS])
    log("slices (req/s)", ["%.0f" % r for r in rates])
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": quantile(lats, 0.5),
        "throughput_rps": quantile(rates, 0.5),
    }
    cat_vecs = encode_all(load, port, corpus["alarms"])
    v = Verifier(corpus["alarms"], cat_vecs, {}, [])
    texts, results = check
    fp32 = encode_all(load, port, texts)
    qvecs = encode_all(load, port, texts, precision) if precision else fp32
    for t, res in zip(texts, results):
        if res[1] is None:
            continue
        if cosine(qvecs[t], fp32[t]) < 0.98:
            v.fail("%s: int8/fp32 cosine %.4f" % (t, cosine(qvecs[t], fp32[t])))
        v.ranking(t, qvecs[t], res[2]["results"], 5)
    metrics["peak_rss_mb"] = daemons.peak_rss_mb()
    daemons.stop()
    for f in v.failures:
        log("CHECK FAILED:", f)
    return not v.failures, load.attempted, load.failed, metrics


def run_stream(args, workdir, daemons, seconds=None):
    out = subprocess.run([binary("pb_layers"), "stream", "--seed=%d" % args.seed,
                          "--seconds=%d" % (seconds or args.seconds)],
                         capture_output=True, text=True, timeout=LOAD_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError("pb_layers stream failed: " + out.stderr[-500:])
    r = json.loads(out.stdout.strip().splitlines()[-1])
    log("stream:", json.dumps(r))
    correct = all(v for k, v in r["checks"].items() if k != "verdict_mismatches")
    metrics = {
        "setup_s": r["setup_s"],
        "latency_p50_ms": r["detect_p50_ms"],
        "throughput_rps": r["paced_episodes_per_s"],
        "peak_rss_mb": r["peak_rss_mb"],
    }
    return correct, r["attempted"], r["failed"], metrics, r


WORKLOADS = {
    "fleet_open_mix": run_fleet,
    "replica_encode_saturate": run_saturate,
    "replica_encode_saturate_int8": lambda *a: run_saturate(*a, precision="int8"),
    "stream_replay": lambda *a: run_stream(*a)[:4],
}
END_TO_END = [("setup_s", "s"), ("latency_p50_ms", "ms"), ("throughput_rps", "1/s"),
              ("peak_rss_mb", "MB")]


# ----------------------------------------------------------- layer tour ----

def run_trace(args, workdir, daemons):
    """Every per-layer metric, from one pass over every layer."""
    corpus = load_corpus()
    load = Load(workdir)
    m = {}
    correct = True

    # Fleet: one open-loop phase at FLEET_RATE mixing four request classes
    # (routed/direct x untraced/traced), so all four see the same cache
    # state. Direct requests go to the replica the router's ring would pick.
    _, reps, (router_port, _) = start_fleet(daemons)
    rng, warmup, measured, _ = fleet_inputs(args.seed, corpus, TRACE_FLEET_S)
    classes = [("router", False), ("router", True), ("ring", False), ("ring", True)]
    rows, klass = [], []
    for due, _, req in measured:
        target, traced = rng.choice(classes)
        req = dict(req)
        if traced:
            req["trace"] = True
        rows.append((due, 0 if target == "router" else "ring", req))
        klass.append((target, traced))
    # Warm-up and measured phase run as one schedule, so the router never
    # idles between them; cache hits are read from the measured replies.
    all_results, _ = load.run("open", [(router_port, ROUTER_CONNS)] + [(p, 1) for p, _ in reps],
                              warmup + rows, FLEET_WINDOW, ring=[p for p, _ in reps])
    results = all_results[len(warmup):]
    m["index.build_ms"] = sum(json.loads(http_get(a, "/statusz")[1])["index"]["build_ms"]
                              for _, a in reps) / len(reps)
    daemons.stop()

    def lat(target, traced):
        return [r[1] for r, k in zip(results, klass) if k == (target, traced) and r[1] is not None]
    routed = [r[2] for r, k in zip(results, klass) if k[0] == "router" and r[1] is not None]
    traced = [(r[1], r[2]) for r, k in zip(results, klass) if k[1] and r[1] is not None]
    direct_traced = [(r[1], r[2]) for r, k in zip(results, klass)
                     if k == ("ring", True) and r[1] is not None]
    p50_routed = quantile(lat("router", False), 0.5)
    m["route.overhead_ms_p50"] = p50_routed - quantile(lat("ring", False), 0.5)
    m["route.attempts_per_request"] = sum(r["routed"]["attempts"] for r in routed) / len(routed)
    routed_requests = sum(1 for k in klass if k[0] == "router")
    m["route.affinity_hit_rate"] = sum(1 for r in routed if r["cache_hit"]) / float(routed_requests)
    done = [r[2] for r in results if r[1] is not None]
    m["serve.cache_hit_rate"] = sum(1 for r in done if r["cache_hit"]) / float(len(done))
    timing = [t for _, r in traced for t in [r["timing"]]]
    m["serve.queue_wait_ms_p50"] = quantile([t["queue_us"] / 1e3 for t in timing], 0.5)
    m["serve.queue_wait_ms_p99"] = quantile([t["queue_us"] / 1e3 for t in timing], 0.99)
    m["serve.batch_ms_p50"] = quantile([t["batch_us"] / 1e3 for t in timing], 0.5)
    m["serve.unattributed_ms_p50"] = quantile(
        [l - r["timing"]["total_us"] / 1e3 for l, r in direct_traced], 0.5)
    m["obs.tracing_overhead_pct"] = 100.0 * (quantile(lat("router", True), 0.5) / p50_routed - 1)

    # Saturated replica, traced: batch formation under a full queue.
    _, port, _ = start_saturate_replica(daemons)
    texts = unique_texts(rng, corpus, 20000, set())
    rows = [(0, 0, {"id": i, "op": "rca", "text": t, "top_k": 5, "trace": True})
            for i, t in enumerate(texts)]
    results, _ = load.run("closed", [(port, CONNS)], rows, SATURATE_WINDOW, seconds=2.0)
    daemons.stop()
    done = [r[2] for r in results if r[1] is not None]
    m["serve.batch_size_mean"] = sum(r["batch_size"] for r in done) / len(done)

    # Stream pipeline: backpressure and fan-out.
    ok, attempted, failed, _, r = run_stream(args, workdir, daemons, seconds=4)
    correct &= ok
    load.attempted += attempted
    load.failed += failed
    m["stream.throttled_submits"] = r["throttled_submits"]
    m["stream.throttled_ms"] = r["throttled_ms"]
    m["stream.requests_per_episode"] = r["requests_per_episode"]

    # In-process calls into each layer's public functions, with the fleet
    # workload's own request lines.
    req_file = os.path.join(workdir, "micro_requests.ndjson")
    with open(req_file, "w") as f:
        for _, _, req in measured[:256]:
            f.write(json.dumps(req) + "\n")
    out = subprocess.run([binary("pb_layers"), "micro", "--seed=%d" % args.seed,
                          "--requests=" + req_file, "--tickets=%d" % INDEX_TICKETS],
                         capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise BenchError("pb_layers micro failed: " + out.stderr[-500:])
    micro = json.loads(out.stdout.strip().splitlines()[-1])
    log("micro:", json.dumps(micro))
    correct &= micro["index.recall_at_10"] >= RECALL_BOUND
    for k, val in micro.items():
        if "." in k:
            m[k] = val
    return correct, load.attempted, load.failed, m


def prom(text):
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            try:
                out[name] = float(value)
            except ValueError:
                pass
    return out


PER_LAYER = [
    ("route.overhead_ms_p50", "ms"), ("route.attempts_per_request", "count"),
    ("route.affinity_hit_rate", "ratio"),
    ("route.ring_lookup_us", "us"),
    ("serve.parse_us", "us"), ("serve.serialize_us", "us"),
    ("serve.queue_wait_ms_p50", "ms"), ("serve.queue_wait_ms_p99", "ms"),
    ("serve.batch_size_mean", "count"), ("serve.batch_ms_p50", "ms"),
    ("serve.unattributed_ms_p50", "ms"), ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_get_us", "us"),
    ("text.build_input_us", "us"),
    ("core.encode_fp32_us_per_seq_b1", "us"), ("core.encode_fp32_us_per_seq_b8", "us"),
    ("core.encode_int8_us_per_seq_b8", "us"),
    ("tensor.gemm_gflops_1t", "GFLOP/s"), ("tensor.gemm_gflops_4t", "GFLOP/s"),
    ("tasks.score_us", "us"),
    ("index.search_us_p50", "us"), ("index.flat_search_us_p50", "us"),
    ("index.recall_at_10", "ratio"), ("index.build_ms", "ms"),
    ("stream.offer_us_per_event", "us"), ("stream.throttled_submits", "count"),
    ("stream.throttled_ms", "ms"), ("stream.requests_per_episode", "count"),
    ("obs.tracing_overhead_pct", "%"),
]


# ------------------------------------------------------------------ main ----

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    workdir = os.path.join(BUILD_DIR, "run-%d" % os.getpid())
    daemons = None
    try:
        build()
        os.makedirs(workdir, exist_ok=True)
        daemons = Daemons(workdir)
        runner = run_trace if args.trace else WORKLOADS[args.workload]
        correct, attempted, failed, values = runner(args, workdir, daemons)
    except BenchError as e:
        log("error:", e)
        return 1
    finally:
        if daemons is not None:
            daemons.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": float(values[k]), "unit": u}
                    for k, u in (PER_LAYER if args.trace else END_TO_END)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
