#!/usr/bin/env python3
"""Reachability audit: which src/ code does a product run reach?

    python3 tools/dsmt_reach.py [--build DIR] [--jobs N]

Builds the product targets (every bench, every example, dsmt_loadgen) with
--coverage -O1 into DIR (default build-reach), runs the product set below,
then reads gcov's JSON output for every product object, headers included,
and prints:

  * src/'s executable lines and how many of them the product reached;
  * each .cpp file of src/CMakeLists.txt with no reached line;
  * each src/ function with no execution, file by file.

The product set follows ROADMAP's rule (code stays if a paper bench, a
reported ablation or extension bench, an example or dsmt_cli, or a served
request reaches it):

  * every bench (bench_perf_kernels at --benchmark_min_time=0.01);
  * every example;
  * dsmt_cli's five subcommands on the four NTRS technologies and on a
    .tech file, and each subcommand once with every option it takes;
  * dsmt_serve --batch on a document of every request kind, six
    technologies, both metals and eight invalid shapes, at the default
    --queue (shedding), at --queue 100000, with --strict and with
    --deadline-ms 1, plus a malformed and a bad-kind document;
  * socket mode under dsmt_loadgen's normal, kill-midframe and garbage
    modes; --cache-dir under cache-storm, bitflip and a reopen;
    --isolate --crash-faults segv under crash-storm; --tcp.

Forked --isolate children _exit without flushing gcov, so what only they
run reads as unreached.

Exit status: 0 when every .cpp file reaches a line or is named in
UNREACHED_OK or DELETION_PENDING (and each file named there is still in
the build and still unreached), 1 otherwise, 2 when the build or a run
fails.
"""
import argparse
import concurrent.futures
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# .cpp files that no product run reaches and that stay, with the reason.
UNREACHED_OK = {
    "extraction/laplace2d.cpp":
        "test reference: Laplace2D.AgreesWithSakuraiWithinEngineeringTolerance "
        "checks the product's cap_bus (Tables 5-6) against this field solve",
    "supervise/worker.cpp":
        "runs only in forked --isolate children, which _exit without "
        "flushing gcov",
}

# Unreached modules that only their own tests run. Each goes, with the
# tests that only check it, in a later change of its own (ROADMAP); the
# value names those tests.
DELETION_PENDING = {
    "circuit/rctree.cpp": "test_rctree.cpp",
    "em/bipolar.cpp": "Bipolar.* in test_em.cpp; its one includer is "
                      "selfconsistent/waveform",
    "repeater/constrained.cpp": "test_constrained.cpp",
    "repeater/crosstalk.cpp": "test_crosstalk.cpp",
    "repeater/delay.cpp": "test_delay_models.cpp",
    "repeater/power.cpp": "test_power.cpp",
    "selfconsistent/waveform.cpp": "test_sc_waveform.cpp",
    "tech/scaling.cpp": "test_scaling.cpp",
    "tech/via.cpp": "test_via.cpp",
}

TECHNOLOGIES = ["NTRS-250nm-Cu", "NTRS-180nm-Cu", "NTRS-130nm-Cu",
                "NTRS-100nm-Cu", "NTRS-250nm-AlCu", "NTRS-100nm-AlCu"]
TIMEOUT_S = 300


class RunError(Exception):
    pass


def run(cmd, cwd, expect=(0,), stdout=subprocess.DEVNULL):
    """Runs cmd to completion. An exit status outside `expect`, a signal or
    a timeout is a failure: a run that fails early would reach less code
    than it claims to."""
    text = " ".join(map(str, cmd))
    try:
        proc = subprocess.run([str(c) for c in cmd], cwd=cwd, stdout=stdout,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"timed out: {text}")
    if proc.returncode not in expect:
        raise RunError(f"exit status {proc.returncode}: {text}")


def product_targets():
    names = [p.stem for p in sorted((ROOT / "bench").glob("*.cpp"))]
    names += [p.stem for p in sorted((ROOT / "examples").glob("*.cpp"))]
    return names + ["dsmt_loadgen"]


def build(build_dir, jobs):
    flags = "--coverage -O1"
    subprocess.run(["cmake", "-S", ROOT, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=None",
                    f"-DCMAKE_CXX_FLAGS={flags}",
                    "-DCMAKE_EXE_LINKER_FLAGS=--coverage"],
                   check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs),
                    "--target", *product_targets()],
                   check=True, stdout=subprocess.DEVNULL)


KINDS = ["self-consistent", "duty-cycle-point", "table-cell"]

# Request shapes that decode but that build_problem refuses (an
# invalid-input reply, not a rejected document), each with the kind it
# applies to.
INVALID = [
    ("self-consistent", {"duty_cycle": 0.0}),
    ("duty-cycle-point", {"duty_cycle": 1.5}),
    ("self-consistent", {"j0_MA_cm2": -1.0}),
    ("duty-cycle-point", {"t_ref_c": -300.0}),
    ("self-consistent", {"wire": {"width_um": -0.4}}),
    ("duty-cycle-point", {"wire": {"metal": "unobtainium"}}),
    ("table-cell", {"level": 0}),
    ("table-cell", {"technology": "NTRS-65nm-Cu"}),
]


def batch_document(requests=600):
    """Every request kind across the technologies and both metals, with
    the invalid shapes mixed in."""
    reqs = []
    for i in range(requests):
        kind = KINDS[i % 3]
        r = {"id": f"r{i}", "kind": kind, "duty_cycle": 0.02 + 0.07 * (i % 14)}
        if kind == "table-cell":
            r.update(technology=TECHNOLOGIES[i % 6], level=1 + i % 6,
                     dielectric=["oxide", "polyimide", "hsq"][i % 3])
        else:
            r["wire"] = {"metal": ["cu", "alcu"][i % 2],
                         "width_um": 0.3 + 0.1 * (i % 7),
                         "thickness_um": 0.5 + 0.1 * (i % 5),
                         "dielectric_um": 0.8,
                         "k_dielectric": [1.15, 0.3, 0.6][i % 3]}
        if i % 13 == 0:
            r["j0_MA_cm2"] = 1.8
        reqs.append(r)
    stride = requests // len(INVALID)
    for s, (kind, fields) in enumerate(INVALID):
        r = reqs[s * stride + 3 + KINDS.index(kind)]
        for key, value in fields.items():
            if key == "wire":
                r["wire"].update(value)
            else:
                r[key] = value
    return reqs


def listening(sock=None, port=None):
    if sock:
        return os.path.exists(sock)
    try:
        socket.create_connection(("127.0.0.1", port), timeout=1).close()
        return True
    except OSError:
        return False


class Server:
    """dsmt_serve in socket mode, on Unix socket `sock` or TCP `port`,
    until stop() sends SIGTERM."""

    def __init__(self, exe, args, cwd, sock=None, port=None):
        if sock and os.path.exists(sock):
            os.unlink(sock)
        self.proc = subprocess.Popen([str(exe), *map(str, args)], cwd=cwd,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        while not listening(sock, port):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RunError(f"dsmt_serve {' '.join(map(str, args))} "
                               f"did not listen")
            time.sleep(0.05)

    def stop(self):
        """SIGTERM; the drain must finish cleanly (exit 0)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            raise RunError("dsmt_serve did not drain on SIGTERM")
        if code != 0:
            raise RunError(f"dsmt_serve exit status {code} after SIGTERM")


def free_tcp_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def run_product(b, work, jobs):
    bench = sorted((b / "bench").glob("bench_*"))
    examples = sorted(p for p in (b / "examples").iterdir()
                      if p.name not in ("dsmt_cli", "dsmt_serve"))
    cli, serve = b / "examples" / "dsmt_cli", b / "examples" / "dsmt_serve"
    loadgen = b / "tools-build" / "dsmt_loadgen"

    def own_dir(exe, *args):
        d = work / exe.name
        d.mkdir(exist_ok=True)
        run([exe, *args], d)

    tasks = [(exe, "--benchmark_min_time=0.01")
             if exe.name == "bench_perf_kernels" else (exe,) for exe in bench]
    tasks += [(exe,) for exe in examples]
    with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        for f in [pool.submit(own_dir, *t) for t in tasks]:
            f.result()

    techfile = work / "ntrs100.tech"
    with open(techfile, "w") as out:
        run([cli, "techfile", "--tech", "100"], work, stdout=out)
    # esd and signoff exit 1 when a layer fails its check.
    for tech in ["250", "180", "130", "100", techfile]:
        for sub in ["designrule", "repeater", "esd", "signoff", "techfile"]:
            run([cli, sub, "--tech", tech], work, expect=(0, 1))
    for options in [["designrule", "--level", "3", "--j0", "1.2", "--duty",
                     "0.2", "--dielectric", "polyimide"],
                    ["repeater", "--level", "2", "--k", "2.5"],
                    ["esd", "--level", "2", "--hbm", "4"],
                    ["signoff", "--j0", "1.0", "--k", "3"]]:
        run([cli, *options, "--tech", "100"], work, expect=(0, 1))

    doc = work / "batch.json"
    doc.write_text(json.dumps(batch_document()))
    for args in [[], ["--queue", "100000"], ["--strict"],
                 ["--deadline-ms", "1"]]:
        # --strict exits 1 on the invalid requests' failure replies.
        run([serve, "--batch", doc, *args], work, expect=(0, 1))
    (work / "malformed.json").write_text('[{"id": "a", ')
    (work / "bad-kind.json").write_text('[{"id": "a", "kind": "melt"}]')
    for name in ["malformed.json", "bad-kind.json"]:
        run([serve, "--batch", work / name], work, expect=(2,))

    sock_dir = Path(tempfile.mkdtemp(prefix="dsmt-reach-"))
    started = []

    def start(args, **where):
        started.append(Server(serve, args, work, **where))
        return started[-1]

    try:
        sock = str(sock_dir / "s.sock")
        srv = start(["--listen", sock], sock=sock)
        for mode in ["normal", "kill-midframe", "garbage"]:
            run([loadgen, "--connect", sock, "--mode", mode, "--clients", "4",
                 "--requests", "16"], work)
        srv.stop()

        cache = work / "cache"
        cache.mkdir(exist_ok=True)
        for round_ in (1, 2):
            srv = start(["--listen", sock, "--cache-dir", cache], sock=sock)
            run([loadgen, "--connect", sock, "--mode", "cache-storm",
                 "--clients", "4", "--requests", "32"], work)
            srv.stop()
            if round_ == 1:
                run([loadgen, "--mode", "bitflip", "--file",
                     cache / "solve.dsc", "--flips", "24", "--seed", "1"],
                    work)

        srv = start(["--listen", sock, "--isolate", "--workers", "2",
                     "--crash-faults", "segv"], sock=sock)
        run([loadgen, "--connect", sock, "--crash-storm", "--clients", "4",
             "--requests", "25", "--poison-percent", "10"], work)
        srv.stop()

        port = free_tcp_port()
        srv = start(["--tcp", port], port=port)
        run([loadgen, "--tcp", port, "--clients", "2", "--requests", "8"],
            work)
        srv.stop()
    finally:
        for srv in started:
            if srv.proc.poll() is None:
                srv.proc.kill()
                srv.proc.wait()
        shutil.rmtree(sock_dir, ignore_errors=True)


def gcov_records(b):
    """gcov's JSON for every product object: libdsmt, benches, examples,
    tools. Objects that never ran (no .gcda) read as zero counts."""
    dirs = [b / "src", b / "bench-build", b / "examples-build",
            b / "tools-build"]
    notes = sorted(str(p) for d in dirs for p in d.rglob("*.gcno"))
    for i in range(0, len(notes), 64):
        proc = subprocess.run(["gcov", "--json-format", "--stdout",
                               *notes[i:i + 64]], cwd=b, check=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        for line in proc.stdout.splitlines():
            if line.strip():
                yield json.loads(line)


def aggregate(b):
    src = str(ROOT / "src") + os.sep
    lines = defaultdict(int)      # (file, line) -> count
    functions = defaultdict(int)  # (file, start line, name) -> executions
    for record in gcov_records(b):
        for f in record["files"]:
            path = os.path.normpath(os.path.join(
                record.get("current_working_directory", ""), f["file"]))
            if not path.startswith(src):
                continue
            rel = path[len(src):]
            for ln in f["lines"]:
                lines[(rel, ln["line_number"])] += ln["count"]
            for fn in f["functions"]:
                functions[(rel, fn["start_line"], fn["demangled_name"])] += \
                    fn["execution_count"]
    return lines, functions


def listed_sources():
    text = (ROOT / "src" / "CMakeLists.txt").read_text()
    block = re.search(r"set\(DSMT_SOURCES(.*?)\)", text, re.S).group(1)
    return block.split()


def report(lines, functions):
    reached_files = defaultdict(int)
    for (rel, _), count in lines.items():
        reached_files[rel] += count > 0
    total = len(lines)
    reached = sum(1 for c in lines.values() if c > 0)
    print(f"src/ executable lines reached by the product: {reached} of "
          f"{total} ({100.0 * reached / max(total, 1):.1f}%)")

    unreached = [s for s in listed_sources() if not reached_files.get(s)]
    print(f"\n.cpp files with no reached line ({len(unreached)}):")
    for s in unreached:
        if s in UNREACHED_OK:
            s += f"  [kept: {UNREACHED_OK[s]}]"
        elif s in DELETION_PENDING:
            s += f"  [deletion pending, with {DELETION_PENDING[s]}]"
        print(f"  {s}")

    cold = sorted(k for k, count in functions.items() if count == 0)
    print(f"\nfunctions with no execution ({len(cold)}):")
    last = None
    for rel, line, name in cold:
        if rel != last:
            print(f"  {rel}")
            last = rel
        print(f"    {line}: {name}")

    named = {**UNREACHED_OK, **DELETION_PENDING}
    failures = [f"{s} has no reached line" for s in unreached
                if s not in named]
    failures += [f"{s} is named as unreached but is "
                 + ("reached" if s in reached_files else "not in the build")
                 for s in named if s not in unreached]
    for f in failures:
        print(f"dsmt_reach: {f}", file=sys.stderr)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", default=str(ROOT / "build-reach"),
                    help="coverage build tree (default build-reach)")
    ap.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1),
                    help="build and bench parallelism (default min(4, cpus))")
    args = ap.parse_args()

    b = Path(args.build).resolve()
    try:
        build(b, args.jobs)
        for gcda in b.rglob("*.gcda"):
            gcda.unlink()
        work = b / "reach-run"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        os.environ.setdefault("DSMT_THREADS", "2")
        run_product(b, work, args.jobs)
    except (RunError, subprocess.CalledProcessError) as e:
        print(f"dsmt_reach: {e}", file=sys.stderr)
        return 2
    return report(*aggregate(b))


if __name__ == "__main__":
    sys.exit(main())
