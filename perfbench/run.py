#!/usr/bin/env python3
"""The repository's wall-clock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the
libraries, the two servers and the measuring binary (perfbench/iphbench.cpp)
from source into $CARGO_TARGET_DIR (default .bench_build) with CMake;
later runs only re-check the build. Workloads (BENCHMARK.json says why):

  bulk-disk    in-process NativeBackend(nproc).upper_hull, n = 2^20 in_disk
  bulk-circle  the same call, n = 2^18 on_circle (every point extreme)
  serve-mixed  open-loop TCP client -> one hullserved (default flags)
  routed       the same traffic -> hullrouter -> two hullserved

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics": {name: {"value", "unit"}}} with every end-to-end metric of
BENCHMARK.json (--trace 0) or every per-layer metric (--trace 1). The
line before it is the run's provenance. Both are also saved under
<build>/perfbench-results/ for compare.py. The exit code is 0 only if
every result was checked correct and the servers' counters reconciled
with the client's; 2 on usage errors, 3 when the program cannot be
built or started (no result line then).
"""
import argparse
import hashlib
import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPS = 9  # set-ups per run; setup_s is their median

WORKLOADS = {
    "bulk-disk": {"kind": "bulk", "family": "disk", "n": 1 << 20},
    "bulk-circle": {"kind": "bulk", "family": "circle", "n": 1 << 18},
    "serve-mixed": {"kind": "serve", "backends": 1},
    "routed": {"kind": "serve", "backends": 2},
}

# Per-layer metrics of layers a workload does not run: reported as 0.
IDLE = {
    "bulk": ("wire.", "serve.", "cluster.", "obs.", "client.late", "trace.joined",
             "trace.recorder", "trace.join_"),
    "serve": ("exec.radix.", "exec.sort_share", "exec.native", "seq."),
}


class BenchError(Exception):
    """The program could not be built or started: no result is printed."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no source tree next to perfbench/ (src/ is missing)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=850)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or "none" when ROOT is not a git work tree."""
    try:
        p = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, text=True,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    out = p.stdout.split()
    if p.returncode != 0 or len(out) != 2 or os.path.realpath(out[0]) != os.path.realpath(ROOT):
        return "none"
    return out[1]


def provenance(bdir, args):
    p = json.loads(subprocess.run([os.path.join(bdir, "iphbench"), "provenance"],
                                  stdout=subprocess.PIPE, text=True, check=True).stdout)
    p.update({
        "workload": args.workload, "seed": args.seed, "run_seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "source_digest": source_digest(),
    })
    return p


# --- server fleet --------------------------------------------------------

def read_port(proc, deadline):
    """Wait for the 'listening <port>' line a server prints on stdout."""
    buf = b""
    while time.monotonic() < deadline:
        r, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        if not r:
            break
        chunk = os.read(proc.stdout.fileno(), 256)
        if not chunk:
            break
        buf += chunk
        for line in buf.decode(errors="replace").splitlines():
            if line.startswith("listening "):
                return int(line.split()[1])
    raise BenchError(f"{proc.args[0]} did not report a port")


def warm_up(port, deadline):
    line = b'{"id":0,"backend":"native","points":[[0,0],[1,2],[2,1],[3,0]]}\n'
    with socket.create_connection(("127.0.0.1", port), timeout=deadline - time.monotonic()) as s:
        s.sendall(line)
        got = b""
        while not got.endswith(b"\n"):
            chunk = s.recv(4096)
            if not chunk:
                break
            got += chunk
    if json.loads(got or b"{}").get("status") != "ok":
        raise BenchError("warm-up request failed")


def start_fleet(bdir, backends, logf):
    """Spawn the servers (and the router) and answer one warm-up request.

    Returns (processes, client port, seconds from the first spawn until
    the warm-up answer was read)."""
    deadline = time.monotonic() + 30
    t0 = time.perf_counter()
    procs = []
    try:
        for _ in range(backends):
            procs.append(subprocess.Popen([os.path.join(bdir, "hullserved"), "--port", "0", "--quiet"],
                                          stdout=subprocess.PIPE, stderr=logf))
        ports = [read_port(p, deadline) for p in procs]
        if backends > 1:
            eps = ",".join(f"127.0.0.1:{p}" for p in ports)
            procs.append(subprocess.Popen([os.path.join(bdir, "hullrouter"), "--port", "0",
                                           "--endpoints", eps, "--quiet"],
                                          stdout=subprocess.PIPE, stderr=logf))
            ports.append(read_port(procs[-1], deadline))
        warm_up(ports[-1], deadline)
        return procs, ports[-1], time.perf_counter() - t0
    except BaseException:
        stop(procs)
        raise


def stop(procs):
    for p in reversed(procs):
        if p.poll() is None:
            p.send_signal(signal.SIGINT)
    for p in reversed(procs):
        try:
            p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
        if p.stdout:
            p.stdout.close()


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# --- runs ----------------------------------------------------------------

def run_iphbench(cmd):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        raise BenchError(f"iphbench exited {p.returncode}")
    return json.loads(lines[-1])


def run_workload(bdir, args, spec):
    outdir = os.path.join(bdir, "perfbench-results")
    os.makedirs(outdir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
              str(args.seconds), "--trace", str(args.trace), "--out-dir", outdir]
    if args.corrupt:
        common.append("--corrupt")
    exe = os.path.join(bdir, "iphbench")
    if spec["kind"] == "bulk":
        return run_iphbench([exe, "bulk", "--family", spec["family"], "--n", str(spec["n"])] + common)
    with open(os.path.join(outdir, "servers.log"), "ab") as logf:
        setup = []
        procs = []
        try:
            for _ in range(SETUP_REPS):
                stop(procs)
                procs, port, secs = start_fleet(bdir, spec["backends"], logf)
                setup.append(secs)
            res = run_iphbench([exe, "load", "--target", f"127.0.0.1:{port}"] + common)
            res["metrics"]["setup_s"] = statistics.median(setup)
            res["metrics"]["peak_rss_mb"] = sum(vm_hwm_mb(p.pid) for p in procs)
        finally:
            stop(procs)
    return res


def check_pram_ledger(bdir, args, prov, raw, res):
    """PRAM step/work counters are pure functions of the inputs: a run
    that repeats the workload, seed, trace mode, length and schedule of an
    earlier run in this build directory must repeat them bit-exactly, or
    it is invalid."""
    key = f"{args.workload}/{args.seed}/{args.trace}/{args.seconds}/" \
          f"{prov['offered_rate']}/{prov['append_rate']}/{prov['conns']}"
    counts = [raw.get("pram.steps_per_query"), raw.get("pram.work_per_query")]
    path = os.path.join(bdir, "perfbench-results", "pram-ledger.json")
    ledger = {}
    if os.path.isfile(path):
        with open(path) as f:
            ledger = json.load(f)
    if key in ledger and ledger[key] != counts:
        res["correct"] = False
        res.setdefault("notes", []).append(
            f"invalid run: PRAM steps/work {counts} differ from an earlier run's {ledger[key]}")
        return
    ledger[key] = counts
    with open(path, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="self-test: corrupt one result; the run must fail")
    args = ap.parse_args()
    spec = WORKLOADS[args.workload]
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        bdir = build_dir()
        build(bdir)
        prov = provenance(bdir, args)
        res = run_workload(bdir, args, spec)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 3
    raw = res["metrics"]
    raw["bench.failed_share"] = res["failed"] / max(1, res["attempted"])
    metrics = {}
    for m in bench["per_layer" if args.trace else "end_to_end"]:
        name = m["name"]
        if name not in raw and args.trace and name.startswith(IDLE[spec["kind"]]):
            raw[name] = 0.0
        if name not in raw:
            log(f"error: metric {name} was not measured")
            return 3
        metrics[name] = {"value": raw[name], "unit": m["unit"]}
    check_pram_ledger(bdir, args, prov, raw, res)
    for note in res.get("notes", []):
        log(note)
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    with open(os.path.join(bdir, "perfbench-results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({"provenance": prov, "result": result}, f, indent=1)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
