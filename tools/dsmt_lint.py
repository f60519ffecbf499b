#!/usr/bin/env python3
"""Physics-aware lint gate for the dsmt library sources.

Rules (library code under src/ only — tests/bench/examples are exempt,
except that R16 also covers examples/):

  R1 unit-tag     Exported function declarations in headers must not take
                  raw `double` parameters unless the parameter is documented
                  with a `[unit]` tag (e.g. [1], [K], [s], [m], [W/(m*K)])
                  in a doc comment within the preceding lines, or on the
                  same line. Strong types from core/units.h need no tag.
  R2 no-stdio     Library code must not write to std::cout / std::cerr or
                  call printf: the library computes, callers report.
  R3 constants    Physical-constant literals (273.15, Boltzmann, elementary
                  charge, vacuum permittivity, ...) may appear only in
                  core/units.h — everywhere else use the named constant.
  R4 pragma-once  Every header must start its preprocessor life with
                  `#pragma once`.
  R5 converged-check  `.converged` may be written anywhere but read only
                  inside the status layer (core/status, numeric/roots,
                  numeric/sparse, numeric/fault_injection): call sites must
                  go through .ok() / the SolverDiag chain so failures carry
                  their StatusCode instead of collapsing to a bare bool.
  R6 no-raw-thread  `std::thread` / `std::jthread` / `std::async` may appear
                  only under src/parallel/ — everywhere else must go through
                  parallel::parallel_for / parallel_map so the determinism
                  contract (static partitioning, ordered reduction, first-
                  error propagation) cannot be bypassed. So may the CPU
                  placement calls (sched_setaffinity, sched_getaffinity,
                  pthread_setaffinity_np, pthread_getaffinity_np,
                  sched_getcpu): parallel_for pins each block of a fan-out
                  region and restores the thread's mask after it, and a pin
                  made anywhere else would outlive its caller on a pool
                  worker. Member calls (`x.sched_getcpu(`) and longer
                  identifiers (`my_sched_getcpu(`) do not fire.
  R7 wall-clock   Wall-clock reads (`std::chrono::system_clock`, `time()`,
                  `std::time()`) are banned from src/: deadlines and
                  timeouts must use std::chrono::steady_clock via
                  core::RunContext, so an NTP step can neither expire nor
                  extend a run budget. Method calls like `res.time()` are
                  not wall-clock reads and do not fire.
  R8 service-io   src/service/ is the hardened request path: file I/O
                  (fstream, fopen, FILE*, freopen, std::getline) and
                  unbounded node-based queues (std::deque, std::queue,
                  std::list) are banned there. The service reads requests
                  its caller already parsed and holds bursts in
                  fixed-capacity index-addressed vectors; a file handle or
                  a growable queue on that path is exactly how overload
                  stops being explicit shedding and becomes OOM.
  R9 lock-vocabulary  The annotated concurrent subsystems (src/parallel/,
                  src/service/, src/net/, src/supervise/, src/cache/,
                  core/signoff, core/run_context, numeric/fault_injection)
                  must use the capability-annotated dsmt::Mutex / dsmt::MutexLock /
                  dsmt::CondVar from core/thread_annotations.h. Raw
                  std::mutex / std::lock_guard / std::unique_lock /
                  std::condition_variable there silently opt shared state
                  out of Clang's -Wthread-safety analysis.
                  core/thread_annotations.h itself is the one sanctioned
                  home of the raw types (it wraps them).
  R10 guarded-state  (heuristic) In the same subsystems, a mutable global
                  (g_-prefixed, by repo convention) or a primitive/container
                  class member (trailing-underscore name) must be
                  std::atomic, DSMT_GUARDED_BY-annotated, const/constexpr,
                  thread_local, a capability type (Mutex/CondVar), or carry
                  an explicit `R10-ok:` justification comment on or just
                  above its declaration. Worker threads reach all of these
                  subsystems; unprotected mutable state there is a data
                  race waiting for a scheduler seed.
  R11 net-syscalls  src/net/ is the sole home of raw socket/fd syscalls
                  (read/write/recv/send/accept/poll/socket/bind/...):
                  everywhere else in src/ must go through the net::
                  wrappers, so the EINTR/EAGAIN/SIGPIPE disciplines cannot
                  be bypassed. Inside src/net/, every interruptible data
                  syscall site must visibly handle EINTR (the token must
                  appear within 8 lines of the call). Member calls
                  (`decoder_.next(...)`, `ctx.poll()`) and nullary accessor
                  declarations (`StatusCode poll() const`) do not fire.
                  tests/, tools/, and examples/ are exempt, like all rules.
  R14 cache-primitives  src/cache/ is the sole home of cache-file I/O and
                  checksum primitives. (a) The FNV-1a constants (offset
                  bases and prime, decimal or hex) may be spelled only in
                  cache/fnv.h — everywhere else calls cache::fnv1a, so a
                  typo'd prime cannot silently fork the hash that segment
                  checksums, shard routing, and quarantine keys agree on.
                  No file is exempt.
                  (b) The segment primitives (core::AppendLog,
                  truncate_file_to, the "DSC1" magic) may appear only under
                  src/cache/ and in core/atomic_file.{h,cpp}, their
                  implementation home — durable cache I/O goes through
                  cache/segment.h so the recovery/quarantine policy cannot
                  be re-implemented ad hoc. tests/, tools/, and examples/
                  are exempt, like all rules.
  R13 process-syscalls  src/supervise/ is the sole home of child-process
                  management syscalls (fork/vfork/exec*/waitpid/wait4/
                  socketpair/setrlimit/kill/_exit): everywhere else in src/
                  must go through supervise::WorkerPool, so crash
                  containment — reap-and-classify, restart backoff, poison
                  quarantine — cannot be re-implemented ad hoc around it.
                  Member calls (`worker.kill(`), suffixed identifiers
                  (`forked(`, `task_kill(`), and nullary unqualified
                  declarations do not fire. tests/, tools/, and examples/
                  are exempt, like all rules.
  R15 reply-writer  one writer of reply bytes. `write_response(` may be
                  called only in src/service/ (its home) and in
                  net/wire.cpp, home of net::response_frame, which frames
                  every socket and worker reply; `response_to_json(`, the
                  tree-building oracle write_response is tested against,
                  only in src/service/. Everywhere else in src/ a reply is
                  a service::Response (failure_response builds the
                  failures) framed by net::response_frame, so one Response
                  is the same bytes on every path and no front end
                  hand-builds a reply. Member calls
                  (`x.response_to_json(`, `w->write_response(`) and longer
                  identifiers (`my_write_response(`, `response_to_json_v2(`)
                  do not fire. tests/, tools/, and examples/ are exempt,
                  like all rules.
  R16 request-decoder  one JSON grammar and one request decoder on every
                  served path. `Json::parse(` (the tree builder) may be
                  called in src/ only under src/report/, its home, and
                  `request_from_json(` (the tree decoder) only in
                  service/request.{h,cpp}, where it is declared and
                  defined; served bytes are decoded by
                  service::RequestDocument straight from the reader. This
                  rule also covers examples/, whose front ends are the
                  served paths. Member calls (`x.request_from_json(`) and
                  longer identifiers (`MyJson::parse(`,
                  `Json::parse_all(`, `request_from_json_v2(`) do not fire.
                  tests/, tools/, and perf/ keep both as oracles.

Exit status 0 when clean, 1 when any violation is found.

Usage: dsmt_lint.py [--root DIR] [--self-test]
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# Files that define the constants / unit vocabulary and are allowed to spell
# the raw literals.
CONSTANT_HOMES = {"core/units.h", "numeric/constants.h"}

# Physical constants that must be referenced by name, with enough context to
# not fire on arbitrary numerics (regexes anchored on the literal).
PHYSICAL_CONSTANTS = [
    (re.compile(r"\b273\.15\b"), "celsius offset (use kCelsiusOffset)"),
    (re.compile(r"\b373\.15\b"), "reference temperature (use kTrefK)"),
    (re.compile(r"\b1\.380649e-23\b"), "Boltzmann constant (use kBoltzmannJ)"),
    (re.compile(r"\b8\.617333262(?:e-5|e-05)\b"),
     "Boltzmann constant in eV (use kBoltzmannEv)"),
    (re.compile(r"\b1\.602176634e-19\b"),
     "elementary charge (use kElementaryCharge)"),
    (re.compile(r"\b8\.8541878128e-12\b"),
     "vacuum permittivity (use kEpsilon0)"),
]

STDIO_RE = re.compile(r"std::cout\b|std::cerr\b|(?<![\w:])printf\s*\(")

# Files that implement the failure-status layer and are allowed to read the
# raw `.converged` flag; everyone else must use .ok() / SolverDiag.
CONVERGED_HOMES = {
    "core/status.h", "core/status.cpp",
    "numeric/fault_injection.h", "numeric/fault_injection.cpp",
    "numeric/roots.cpp", "numeric/sparse.cpp",
}

# A `.converged` occurrence that is not a plain assignment (writes stay
# legal everywhere: kernels populate the flag, they just may not branch
# on it outside the status layer).
CONVERGED_READ_RE = re.compile(r"\.converged\b(?!\s*=(?!=))")

# The only directory allowed to create threads; everyone else uses the
# deterministic fan-out layer it exports.
THREAD_HOME_PREFIX = "parallel/"

RAW_THREAD_RE = re.compile(r"std::(?:jthread|thread|async)\b")

# CPU placement calls, fenced with thread creation: only parallel_for pins
# threads, and only for the duration of one block.
CPU_PLACEMENT_RE = re.compile(
    r"(?<![\w.>])(?:sched_setaffinity|sched_getaffinity|"
    r"pthread_setaffinity_np|pthread_getaffinity_np|sched_getcpu)\s*\(")

# Wall-clock reads. The bare `time(` alternative must not match member or
# suffixed calls (`res.time()`, `->time()`, `crossing_time(`), hence the
# lookbehind, and must not match nullary accessor declarations (`time()
# const`), hence the required argument — C's time() always takes one.
# `std::time(` needs its own alternative because the lookbehind would
# otherwise reject the qualifying `::`.
WALL_CLOCK_RE = re.compile(
    r"std::chrono::system_clock\b|std::time\s*\(|"
    r"(?<![\w.:>])time\s*\(\s*[^)\s]")

# The hardened request path: no file I/O, no unbounded queue containers.
SERVICE_PREFIX = "service/"

# File-I/O vocabulary. `FILE` needs the word boundary so `ProFILE` stays
# legal; std::getline is the istream reader, never needed on the service
# path (requests arrive as parsed Json).
SERVICE_FILE_IO_RE = re.compile(
    r"std::(?:[io]?fstream|getline)\b|(?<![\w:])(?:fopen|freopen)\s*\(|"
    r"(?<![\w:])FILE\s*\*")

# Node-based growable containers whose per-element allocation makes queue
# growth invisible until the allocator fails: bursts must live in
# fixed-capacity vectors sized by admission control.
SERVICE_UNBOUNDED_RE = re.compile(r"std::(?:deque|queue|list)\s*<")

# The annotated concurrent subsystems: every file here is expected to use
# the capability-annotated lock vocabulary (R9) and to protect its mutable
# state visibly (R10). core/thread_annotations.h is the single sanctioned
# home of the raw std types — it is what wraps them.
CONCURRENCY_FENCE_PREFIXES = ("parallel/", "service/", "net/", "supervise/",
                              "cache/")
CONCURRENCY_FENCE_FILES = {
    "core/signoff.cpp",
    "core/run_context.h", "core/run_context.cpp",
    "numeric/fault_injection.h", "numeric/fault_injection.cpp",
}
THREAD_ANNOTATIONS_HOME = "core/thread_annotations.h"

RAW_LOCK_RE = re.compile(
    r"std::(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable(?:_any)?)\b")

# R10 heuristic vocabulary. Primitive and standard-container types whose
# mutation from two threads is a data race; internally synchronized class
# types (cache::SolveCache, supervise::WorkerPool, ...) and smart-pointer
# handles are deliberately not matched — their pointees are judged at their
# own declarations.
R10_TYPES = (
    r"(?:bool|char|short|int|long|unsigned|float|double|size_t|"
    r"std::size_t|std::u?int\d+_t|std::string|std::vector|std::deque|"
    r"std::map|std::unordered_map|std::set|std::unordered_set|std::list|"
    r"std::function|std::optional|std::exception_ptr)")
# Class member: primitive/container type followed (possibly via template
# args) by a trailing-underscore name.
R10_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:static\s+)?" + R10_TYPES +
    r"(?:<[^;]*?>)?[\s*&]+(\w+_)\b")
# Namespace-scope mutable global: any type token followed by a g_ name
# (repo convention). The keyword guard keeps `delete g_pool;` and
# `return g_x;` statements from matching.
R10_GLOBAL_RE = re.compile(
    r"^\s*(?!delete\b|return\b|new\b|throw\b|case\b)"
    r"(?:static\s+)?[\w:]+(?:<[^;]*?>)?[\s*&]+(g_\w+)\b")
# Markers that satisfy R10 when present on the declaration's line span (the
# line, a continuation through ';', or up to two preceding comment lines).
R10_MARKER_RE = re.compile(
    r"std::atomic|DSMT_GUARDED_BY|DSMT_PT_GUARDED_BY|\bconst\b|"
    r"\bconstexpr\b|\bthread_local\b|\bMutex\b|\bCondVar\b|R10-ok:")

# The one directory allowed to make raw socket/fd syscalls (R11); its
# wrappers (net/socket_io.h) enforce the EINTR/EAGAIN/SIGPIPE disciplines.
NET_PREFIX = "net/"
# Files with a sanctioned, self-contained fd discipline of their own that
# R11's outside-net ban does not apply to: the durable-write helper retries
# EINTR at every write and must not route file I/O through socket wrappers.
R11_EXEMPT_FILES = ("core/atomic_file.cpp",)


def _syscall_re(names: str) -> re.Pattern:
    """Raw syscall call sites: either explicitly global-qualified
    (`::read(...)`) or unqualified with at least one argument — the
    argument requirement keeps nullary accessor declarations
    (`StatusCode poll() const`) quiet, and the lookbehind keeps member
    calls (`decoder_.next(`), suffixed names (`read_some(`), and
    std-qualified names (`std::bind(`) quiet."""
    return re.compile(
        r"(?<![\w:])::(?:" + names + r")\s*\(|"
        r"(?<![\w.:>])(?:" + names + r")\s*\(\s*[^)\s]")


# Interruptible data-path syscalls: these can fail EINTR mid-stream, so
# every call site in src/net/ must visibly handle it.
SYSCALL_DATA_NAMES = (
    r"pread|read|pwrite|write|recvfrom|recvmsg|recv|sendto|sendmsg|send|"
    r"accept4|accept|ppoll|poll|connect|close")
# Setup-path syscalls: banned outside src/net/ with the rest, but no EINTR
# discipline demanded at the site (bind/listen/socket do not EINTR).
SYSCALL_SETUP_NAMES = (
    r"socket|bind|listen|setsockopt|getsockname|shutdown|pipe2|pipe")

SYSCALL_ANY_RE = _syscall_re(SYSCALL_DATA_NAMES + r"|" + SYSCALL_SETUP_NAMES)
SYSCALL_DATA_RE = _syscall_re(SYSCALL_DATA_NAMES)
# EINTR handling must be visible within this many lines of the call site.
EINTR_SPAN = 8
EINTR_RE = re.compile(r"\bEINTR\b")

# The one directory allowed to manage child processes (R13): the supervised
# worker pool owns fork / exec / reap / kill / rlimit rails, so crash
# containment (death classification, seeded restart backoff, poison
# quarantine) lives in exactly one place.
SUPERVISE_PREFIX = "supervise/"
PROCESS_SYSCALL_NAMES = (
    r"vfork|fork|execvpe?|execve?|execl[ep]?|waitpid|waitid|wait4|"
    r"socketpair|setrlimit|kill|_exit")
PROCESS_SYSCALL_RE = _syscall_re(PROCESS_SYSCALL_NAMES)


# The one header allowed to spell the FNV-1a constants (R14a): every
# checksum and content hash in the tree calls cache::fnv1a, so segment
# checksums, shard routing, and quarantine keys agree on one hash and a
# typo'd prime cannot silently fork it. 1469598103934665603 is the frozen
# historical canonical-request basis (PR 9's supervise hash) — changing or
# re-deriving it would orphan every persisted quarantine table and segment.
FNV_HOME = "cache/fnv.h"
FNV_LITERAL_RE = re.compile(
    r"\b(?:14695981039346656037|1469598103934665603|1099511628211)"
    r"[uUlL]*\b|"
    r"0[xX](?:cbf29ce484222325|100000001b3)[uUlL]*\b",
    re.IGNORECASE)

# The segment-file primitives (R14b): the fsync'd append log, the torn-tail
# truncation helper, and the segment magic may appear only under src/cache/
# and in core/atomic_file.{h,cpp}, their implementation home. Durable cache
# I/O goes through cache/segment.h so the recovery/quarantine policy is
# written exactly once.
CACHE_PREFIX = "cache/"
CACHE_IO_EXEMPT_FILES = ("core/atomic_file.h", "core/atomic_file.cpp")
CACHE_IO_RE = re.compile(r"\bAppendLog\b|\btruncate_file_to\b|\"DSC1\"")


# The reply writer's callers (R15): src/service/ owns write_response and
# its oracle response_to_json, and net/wire.cpp holds the one encoder that
# frames a Response. Any other caller would be a second writer, free to
# drift from the first.
REPLY_CODEC_PREFIX = "service/"
REPLY_ENCODER_HOME = "net/wire.cpp"
RESPONSE_TO_JSON_RE = re.compile(r"(?<![\w.>])response_to_json\s*\(")
WRITE_RESPONSE_RE = re.compile(r"(?<![\w.>])write_response\s*\(")


# The request decoder's fence (R16): the tree builder Json::parse lives in
# src/report/, and the tree decoder request_from_json in the request codec.
# A served path that called either would decode requests a second way,
# through a tree the reader exists to avoid.
JSON_PARSE_HOME_PREFIX = "report/"
REQUEST_FROM_JSON_HOMES = ("service/request.h", "service/request.cpp")
JSON_PARSE_RE = re.compile(r"(?<![\w.>])Json\s*::\s*parse\s*\(")
REQUEST_FROM_JSON_RE = re.compile(r"(?<![\w.>])request_from_json\s*\(")


# A doc line counts as carrying a unit tag when it contains [...] with a
# plausible unit expression: [1], [K], [s], [A/m^2], [W/(m*K)], [K*m/W], ...
UNIT_TAG_RE = re.compile(r"\[[\w\s./*^()%-]+\]")

# Parameter declared as raw double (not double* / double& / std::function /
# vector<double> — those are data containers, not single physical values).
RAW_DOUBLE_PARAM_RE = re.compile(r"(?<![\w<])double\s+(\w+)\s*[,)=]")


def strip_comments(line: str) -> str:
    return re.sub(r"//.*$", "", line)


def find_decl_params(text: str):
    """Yield (line_no, param_name, context_lines) for raw-double params of
    function declarations at namespace/class scope in a header."""
    lines = text.split("\n")
    depth = 0
    for i, raw in enumerate(lines):
        line = strip_comments(raw)
        # Only consider declaration-ish lines outside function bodies: we
        # track brace depth but allow depth 1-2 (namespace + class).
        open_b = line.count("{")
        close_b = line.count("}")
        if depth <= 3 and "(" in line and "double" in line:
            # Skip control flow and macro lines.
            stripped = line.strip()
            if not stripped.startswith(("if", "for", "while", "switch", "#",
                                        "return", "throw")):
                for m in RAW_DOUBLE_PARAM_RE.finditer(line):
                    context = lines[max(0, i - 6):i + 1]
                    yield i + 1, m.group(1), context
        depth += open_b - close_b


def has_unit_tag(context_lines) -> bool:
    for line in context_lines:
        if ("//" in line or "/*" in line or "*" in line.strip()[:1]) and \
                UNIT_TAG_RE.search(line):
            return True
    # Same-line trailing comment also counts.
    last = context_lines[-1]
    return "//" in last and UNIT_TAG_RE.search(last.split("//", 1)[1]) is not None


def in_concurrency_fence(rel: str) -> bool:
    return (rel.startswith(CONCURRENCY_FENCE_PREFIXES) or
            rel in CONCURRENCY_FENCE_FILES)


def r10_span_has_marker(lines, i: int) -> bool:
    """True when the declaration starting at raw line i carries an R10
    marker on its line span (through the terminating ';', max 3 lines) or in
    the contiguous comment block immediately above it."""
    span = []
    for j in range(i, min(i + 3, len(lines))):
        span.append(lines[j])
        if ";" in lines[j]:
            break
    for j in range(i - 1, max(i - 6, -1), -1):
        s = lines[j].strip()
        if s.startswith("//") or s.startswith("*") or s.startswith("/*"):
            span.append(lines[j])
        else:
            break
    return any(R10_MARKER_RE.search(line) for line in span)


def lint_file(path: pathlib.Path, rel: str, errors: list):
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")

    is_header = rel.endswith(".h")

    # R4: #pragma once must be the first preprocessor directive.
    if is_header:
        for line in lines:
            s = line.strip()
            if not s or s.startswith("//"):
                continue
            if s != "#pragma once":
                errors.append(f"{rel}:1: [pragma-once] header does not start "
                              f"with '#pragma once'")
            break

    # R2: no stdio in library code.
    for i, raw in enumerate(lines):
        line = strip_comments(raw)
        m = STDIO_RE.search(line)
        if m:
            errors.append(f"{rel}:{i + 1}: [no-stdio] library code writes to "
                          f"stdio ('{m.group(0).strip()}') — return data, "
                          f"let callers report")

    # R3: physical-constant literals only in their home files.
    if rel not in CONSTANT_HOMES:
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            for pat, what in PHYSICAL_CONSTANTS:
                if pat.search(line):
                    errors.append(f"{rel}:{i + 1}: [constants] literal "
                                  f"{what}")

    # R5: `.converged` reads only inside the status layer.
    if rel not in CONVERGED_HOMES:
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            if CONVERGED_READ_RE.search(line):
                errors.append(f"{rel}:{i + 1}: [converged-check] raw "
                              f"'.converged' read outside the status layer — "
                              f"use .ok() or the SolverDiag chain")

    # R6: raw threading primitives and CPU placement only under
    # src/parallel/.
    if not rel.startswith(THREAD_HOME_PREFIX):
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = RAW_THREAD_RE.search(line)
            if m:
                errors.append(f"{rel}:{i + 1}: [no-raw-thread] raw "
                              f"'{m.group(0)}' outside src/parallel/ — use "
                              f"parallel::parallel_for / parallel_map to keep "
                              f"results thread-count invariant")
            m = CPU_PLACEMENT_RE.search(line)
            if m:
                errors.append(f"{rel}:{i + 1}: [no-raw-thread] CPU "
                              f"placement '{m.group(0).rstrip(' (')}' outside "
                              f"src/parallel/ — parallel_for places the blocks "
                              f"of a region and restores each thread's mask")

    # R7: no wall-clock reads in library code — monotonic budgets only.
    for i, raw in enumerate(lines):
        line = strip_comments(raw)
        m = WALL_CLOCK_RE.search(line)
        if m:
            errors.append(f"{rel}:{i + 1}: [wall-clock] wall-clock read "
                          f"('{m.group(0).strip()}') — deadlines must use "
                          f"std::chrono::steady_clock (core::RunContext)")

    # R8: src/service/ is the hardened path — no file I/O, no unbounded
    # queues. The batch front end (examples/dsmt_serve.cpp) owns the file
    # handles; admission control owns the memory bound.
    if rel.startswith(SERVICE_PREFIX):
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = SERVICE_FILE_IO_RE.search(line)
            if m:
                errors.append(f"{rel}:{i + 1}: [service-io] file I/O "
                              f"('{m.group(0).strip()}') on the hardened "
                              f"service path — parse input at the edge "
                              f"(examples/dsmt_serve.cpp), pass Json in")
            m = SERVICE_UNBOUNDED_RE.search(line)
            if m:
                errors.append(f"{rel}:{i + 1}: [service-io] unbounded queue "
                              f"container ('{m.group(0).strip()}') on the "
                              f"service path — hold bursts in fixed-capacity "
                              f"vectors sized by admission control")

    # R9 + R10: the annotated concurrent subsystems. R9 fences the raw std
    # lock vocabulary out (it is invisible to -Wthread-safety); R10 demands
    # that mutable globals / primitive members there be visibly protected.
    if in_concurrency_fence(rel) and rel != THREAD_ANNOTATIONS_HOME:
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = RAW_LOCK_RE.search(line)
            if m:
                errors.append(f"{rel}:{i + 1}: [lock-vocabulary] raw "
                              f"'{m.group(0)}' in an annotated subsystem — "
                              f"use dsmt::Mutex / dsmt::MutexLock / "
                              f"dsmt::CondVar (core/thread_annotations.h) so "
                              f"Clang's -Wthread-safety sees the acquisition")
            decl = R10_MEMBER_RE.match(line) or R10_GLOBAL_RE.match(line)
            if decl and not r10_span_has_marker(lines, i):
                errors.append(f"{rel}:{i + 1}: [guarded-state] mutable state "
                              f"'{decl.group(1)}' in an annotated subsystem "
                              f"is neither std::atomic nor DSMT_GUARDED_BY — "
                              f"annotate it, make it atomic, or justify with "
                              f"an 'R10-ok:' comment above the declaration")

    # R11: raw socket/fd syscalls live in src/net/ only; inside src/net/,
    # every interruptible data syscall visibly handles EINTR nearby.
    if not rel.startswith(NET_PREFIX):
        if rel not in R11_EXEMPT_FILES:
            for i, raw in enumerate(lines):
                line = strip_comments(raw)
                m = SYSCALL_ANY_RE.search(line)
                if m:
                    errors.append(f"{rel}:{i + 1}: [net-syscalls] raw fd "
                                  f"syscall ('{m.group(0).strip()}') outside "
                                  f"src/net/ — go through the net::socket_io "
                                  f"wrappers so the EINTR/EAGAIN/SIGPIPE "
                                  f"disciplines hold")
    else:
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = SYSCALL_DATA_RE.search(line)
            if not m:
                continue
            lo = max(0, i - EINTR_SPAN)
            hi = min(len(lines), i + EINTR_SPAN + 1)
            if not any(EINTR_RE.search(lines[j]) for j in range(lo, hi)):
                errors.append(f"{rel}:{i + 1}: [net-syscalls] interruptible "
                              f"syscall ('{m.group(0).strip()}') with no "
                              f"visible EINTR handling within {EINTR_SPAN} "
                              f"lines — retry the call (or document why the "
                              f"interrupt cannot occur) at the site")

    # R13: child-process management syscalls live in src/supervise/ only —
    # the worker pool is the single owner of fork/reap/kill/rlimit, so
    # crash containment cannot be re-implemented ad hoc around it.
    if not rel.startswith(SUPERVISE_PREFIX):
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = PROCESS_SYSCALL_RE.search(line)
            if m:
                errors.append(f"{rel}:{i + 1}: [process-syscalls] raw "
                              f"process syscall ('{m.group(0).strip()}') "
                              f"outside src/supervise/ — child processes are "
                              f"owned by supervise::WorkerPool (fork, reap, "
                              f"kill, rlimit rails) so crash containment "
                              f"stays in one place")

    # R14: cache-file I/O and checksum primitives are fenced into
    # src/cache/. (a) The FNV-1a constants may be spelled only in
    # cache/fnv.h; everyone else calls cache::fnv1a. (b) The segment append/truncate
    # primitives and the segment magic live under src/cache/ and in their
    # implementation home core/atomic_file.{h,cpp}.
    if rel != FNV_HOME:
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = FNV_LITERAL_RE.search(line)
            if m:
                errors.append(f"{rel}:{i + 1}: [cache-primitives] FNV-1a "
                              f"constant '{m.group(0).strip()}' spelled "
                              f"outside cache/fnv.h — call cache::fnv1a so "
                              f"segment checksums, shard routing, and "
                              f"quarantine keys stay on one hash")
    if not rel.startswith(CACHE_PREFIX) and rel not in CACHE_IO_EXEMPT_FILES:
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = CACHE_IO_RE.search(line)
            if m:
                errors.append(f"{rel}:{i + 1}: [cache-primitives] cache "
                              f"segment primitive ('{m.group(0).strip()}') "
                              f"outside src/cache/ — durable cache I/O goes "
                              f"through cache/segment.h + core/atomic_file "
                              f"so recovery and checksum policy are written "
                              f"once")

    # R15: one reply writer. write_response is called only by the service
    # (its home) and by net::response_frame in net/wire.cpp; its oracle
    # response_to_json only by the service.
    if not rel.startswith(REPLY_CODEC_PREFIX):
        writer_allowed = rel == REPLY_ENCODER_HOME
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            if RESPONSE_TO_JSON_RE.search(line):
                errors.append(f"{rel}:{i + 1}: [reply-writer] "
                              f"response_to_json called outside "
                              f"src/service/ — it is the test oracle; frame "
                              f"a reply with net::response_frame (and build "
                              f"a failure with service::failure_response) "
                              f"so every path sends the same bytes")
            if not writer_allowed and WRITE_RESPONSE_RE.search(line):
                errors.append(f"{rel}:{i + 1}: [reply-writer] "
                              f"write_response called outside src/service/ "
                              f"and net/wire.cpp — frame a reply with "
                              f"net::response_frame so every path sends the "
                              f"same bytes")

    lint_decoder_calls(lines, rel, errors)

    # R1: raw double params in exported header decls need a [unit] doc tag.
    # core/units.h is the unit vocabulary itself: its factory helpers and
    # scalar operators are exactly the sanctioned raw-double boundary.
    if is_header and rel not in CONSTANT_HOMES:
        for line_no, name, context in find_decl_params(text):
            if not has_unit_tag(context):
                errors.append(
                    f"{rel}:{line_no}: [unit-tag] raw double parameter "
                    f"'{name}' lacks a [unit] doc tag — use a strong type "
                    f"from core/units.h or document the unit")


def lint_decoder_calls(lines, rel: str, errors: list):
    """R16: Json::parse only under src/report/, request_from_json only in
    the request codec; `rel` is relative to src/, or starts with
    "examples/" for a front end."""
    parse_allowed = rel.startswith(JSON_PARSE_HOME_PREFIX)
    decoder_allowed = rel in REQUEST_FROM_JSON_HOMES
    for i, raw in enumerate(lines):
        line = strip_comments(raw)
        if not parse_allowed and JSON_PARSE_RE.search(line):
            errors.append(f"{rel}:{i + 1}: [request-decoder] Json::parse "
                          f"called outside src/report/ — decode a request "
                          f"with service::RequestDocument (a batch with "
                          f"service::parse_batch), which reads the bytes "
                          f"without a tree")
        if not decoder_allowed and REQUEST_FROM_JSON_RE.search(line):
            errors.append(f"{rel}:{i + 1}: [request-decoder] "
                          f"request_from_json called outside "
                          f"service/request.{{h,cpp}} — it decodes a tree; "
                          f"served bytes go through "
                          f"service::RequestDocument")


def run(root: pathlib.Path) -> int:
    src = root / "src"
    # A missing tree must not read as "clean": a typo'd --root in CI would
    # otherwise pass the gate vacuously.
    if not src.is_dir():
        print(f"dsmt_lint: error: no src/ directory under {root}",
              file=sys.stderr)
        return 2
    errors: list[str] = []
    for path in sorted(src.rglob("*.h")) + sorted(src.rglob("*.cpp")):
        rel = path.relative_to(src).as_posix()
        lint_file(path, rel, errors)
    # R16 also fences the front ends in examples/.
    examples = root / "examples"
    for path in sorted(examples.rglob("*.h")) + sorted(examples.rglob("*.cpp")):
        rel = "examples/" + path.relative_to(examples).as_posix()
        lint_decoder_calls(path.read_text(encoding="utf-8").split("\n"), rel,
                           errors)
    for e in errors:
        print(e)
    if errors:
        print(f"\ndsmt_lint: {len(errors)} violation(s)")
        return 1
    print("dsmt_lint: clean")
    return 0


SELF_TEST_BAD_HEADER = """\
#include <cmath>
#pragma once

namespace dsmt {

/// Converts a temperature with no unit documentation anywhere.
double shady_convert(double temperature);

inline double to_kelvin(double t_c) { return t_c + 273.15; }

inline void report(double x) { std::cout << x; }  // [1]

inline bool is_done(const Result& r) { return r.converged; }

inline void race() { std::thread([] {}).join(); }

inline long stamp() { return time(nullptr); }  // [s]

}  // namespace dsmt
"""

SELF_TEST_GOOD_HEADER = """\
// A well-behaved header.
#pragma once

namespace dsmt {

/// Scales a ratio [1] by gain [1].
double scale(double ratio, double gain);

/// Writing the flag is legal everywhere — only reads are fenced in.
inline void mark(Result& r) { r.converged = true; }

/// Member and suffixed calls are not wall-clock reads; steady_clock is the
/// sanctioned clock.
inline double last(const Series& s) { return s.time(); }
inline double tick() { return crossing_time(1.0); }

}  // namespace dsmt
"""


SELF_TEST_BAD_SERVICE = """\
// Everything R8 bans, in one service file.
#pragma once

#include <deque>
#include <fstream>
#include <queue>

namespace dsmt::service {

inline void spool(const Request& r) {
  std::ofstream out("spool.json");          // file I/O on the hot path
  FILE* raw = nullptr;
  raw = fopen("spool.bin", "wb");
  std::string line;
  std::getline(std::cin, line);
}

inline void buffer(const Request& r) {
  static std::deque<Request> backlog;       // grows until the allocator fails
  static std::queue<Request> pending;
  static std::list<Request> retired;
}

}  // namespace dsmt::service
"""

SELF_TEST_GOOD_SERVICE = """\
// The sanctioned shapes: bounded vectors, profiles, no file handles.
#pragma once

#include <map>
#include <vector>

namespace dsmt::service {

/// Index-addressed burst storage sized by admission control [1].
inline std::vector<Response> hold(std::size_t capacity) {
  std::vector<Response> out;
  out.reserve(capacity);
  return out;
}

/// `ProFILE *` must not trip the FILE* pattern, nor queue_capacity the
/// container one.
inline void shapes(const ProFILE* profile, std::size_t queue_capacity) {}

}  // namespace dsmt::service
"""


SELF_TEST_BAD_CONCURRENCY = """\
// Everything R9/R10 bans, in one fenced file: raw lock vocabulary plus
// unguarded mutable state.
#pragma once

#include <mutex>
#include <vector>

namespace dsmt::parallel {

class Worklist {
 public:
  void push(int v) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(v);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int> pending_;
  bool draining_ = false;
};

int g_epoch = 0;

}  // namespace dsmt::parallel
"""

SELF_TEST_GOOD_CONCURRENCY = """\
// The sanctioned shapes: annotated vocabulary, visibly protected state.
#pragma once

namespace dsmt::service {

class Tally {
 public:
  void bump() {
    MutexLock lock(mu_);
    ++count_;
  }

 private:
  mutable Mutex mu_;
  std::uint64_t count_ DSMT_GUARDED_BY(mu_) = 0;
  std::atomic<int> fast{0};
  // The marker may sit on a continuation line of the declaration...
  std::map<std::string, int> lookup_
      DSMT_GUARDED_BY(mu_);
  // R10-ok: seeded once in the constructor before the object is shared
  // with workers; never written again.
  std::size_t capacity_ = 0;
  static constexpr int kBurst = 8;
};

}  // namespace dsmt::service
"""

SELF_TEST_BAD_PLACEMENT = """\
// Every CPU placement call R6 fences to src/parallel/, once each.
#pragma once

#include <pthread.h>
#include <sched.h>

namespace dsmt::demo {

inline int where() { return ::sched_getcpu(); }

inline void pin(cpu_set_t& saved, const cpu_set_t& one) {
  sched_getaffinity(0, sizeof saved, &saved);
  ::sched_setaffinity(0, sizeof one, &one);
}

inline void pin_thread(pthread_t t, cpu_set_t& saved, const cpu_set_t& one) {
  pthread_getaffinity_np(t, sizeof saved, &saved);
  pthread_setaffinity_np (t, sizeof one, &one);
}

}  // namespace dsmt::demo
"""

SELF_TEST_GOOD_PLACEMENT = """\
// Look-alikes R6's placement fence must stay quiet on: comments, member
// calls and longer identifiers.
#pragma once

namespace dsmt::demo {

// sched_setaffinity(0, ...) is parallel_for's job.
inline int look_alikes(const Topology& topo, const Topology* other) {
  topo.sched_getcpu();
  other->sched_setaffinity(1);
  my_sched_getcpu();
  return pthread_getaffinity_np_count(2);
}

}  // namespace dsmt::demo
"""

SELF_TEST_BAD_SYSCALL = """\
// Raw fd syscalls in three shapes R11 must catch when the file is outside
// src/net/ — and flag for missing interrupt-retry handling when inside.
#pragma once

namespace dsmt::demo {

inline long pull(int fd, char* buf, unsigned long n) {
  return ::read(fd, buf, n);
}

inline long push(int fd, const char* buf, unsigned long n) {
  return send(fd, buf, n, 0);
}

inline int wait_ready(void* fds, int n, int timeout_ms) {
  return poll(fds, n, timeout_ms);
}

}  // namespace dsmt::demo
"""

SELF_TEST_GOOD_NET = """\
// The sanctioned src/net/ shapes: every interruptible syscall handles
// EINTR visibly, and look-alikes (member calls, nullary accessor
// declarations, suffixed wrapper names) must not fire at all.
#pragma once

namespace dsmt::net {

inline long pull(int fd, char* buf, unsigned long n) {
  for (;;) {
    const long got = ::recv(fd, buf, n, 0);
    if (got >= 0) return got;
    if (errno == EINTR) continue;  // interrupted before any byte: retry
    return -1;
  }
}

class Probe {
 public:
  int poll() const;           // nullary accessor declaration, not poll(2)
  long drain(Decoder& d) {
    return d.read(16);        // member call, not read(2)
  }
  long fill(int fd, char* buf, unsigned long n) {
    return read_some(fd, buf, n);  // suffixed wrapper name, not read(2)
  }
};

}  // namespace dsmt::net
"""

SELF_TEST_BAD_PROCESS = """\
// Raw process-management syscalls in the four shapes R13 must catch when
// the file sits outside src/supervise/.
#pragma once

namespace dsmt::demo {

inline int spawn() {
  return ::fork();
}

inline void reap(int pid) {
  int status = 0;
  waitpid(pid, &status, 0);
  kill(pid, 9);
}

inline bool rail(unsigned long bytes) {
  return setrlimit(9, nullptr) == 0;
}

}  // namespace dsmt::demo
"""

SELF_TEST_GOOD_PROCESS = """\
// Look-alikes R13 must stay quiet on: member calls, suffixed identifiers,
// nullary unqualified declarations, and names embedded in longer words.
#pragma once

namespace dsmt::demo {

class Task {
 public:
  int fork() const;                 // nullary declaration, not fork(2)
  void stop(Worker& worker) {
    worker.kill(SIGTERM);           // member call, not kill(2)
  }
  void purge(const char* name) {
    killall(name);                  // longer identifier, not kill(2)
    task_kill(7);                   // prefixed identifier, not kill(2)
  }
  bool forked(int pid) {            // suffixed identifier, not fork(2)
    return pid > 0;
  }
};

}  // namespace dsmt::demo
"""

SELF_TEST_BAD_CACHE = """\
// FNV-1a constants and segment primitives in the shapes R14 must catch
// when the file sits outside src/cache/.
#pragma once

#include <cstdint>
#include <string>

namespace dsmt::demo {

inline std::uint64_t my_hash(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h ^= 1469598103934665603ULL;
  return h ^ 0xcbf29ce484222325ULL;
}

inline void rewrite_segment(const std::string& path) {
  core::AppendLog log(path);
  core::truncate_file_to(path, 0);
  log.append("DSC1");
}

}  // namespace dsmt::demo
"""

SELF_TEST_GOOD_CACHE = """\
// Look-alikes R14 must stay quiet on: the sanctioned cache::fnv1a call,
// nearby-but-different numerics, longer/suffixed identifiers, and a
// different file magic.
#pragma once

#include <cstdint>
#include <string>

namespace dsmt::demo {

inline std::uint64_t content_key(const std::string& s) {
  return cache::fnv1a(s);                       // the sanctioned entry point
}

inline std::uint64_t near_misses() {
  const std::uint64_t a = 1099511627776ull;     // 2^40, not the FNV prime
  const std::uint64_t b = 14695981039346656036ull;  // basis off by one
  return a ^ b;
}

class AppendLogger {                            // longer identifier
 public:
  void truncate_file_to_zero();                 // suffixed identifier
  const char* magic() const { return "DSC2"; }  // a different magic
};

}  // namespace dsmt::demo
"""

SELF_TEST_BAD_REPLY = """\
// Hand-built reply writers in the three shapes R15 must catch, for each of
// its two names: write_response outside src/service/ and net/wire.cpp,
// response_to_json outside src/service/.
#pragma once

#include <string>

namespace dsmt::demo {

inline std::string hand_built(const service::Response& resp) {
  return net::encode_frame(service::response_to_json(resp).dump(-1));
}

inline std::string spaced(const service::Response& resp) {
  return dsmt::service::response_to_json (resp).dump(2);
}

using service::response_to_json;
inline std::string bare(const service::Response& resp) {
  return response_to_json(resp).dump(-1);
}

inline std::string written(const service::Response& resp) {
  std::string out;
  service::write_response(out, resp, -1);
  return out;
}

inline void written_spaced(std::string& out, const service::Response& resp) {
  dsmt::service::write_response (out, resp, 2, 1);
}

using service::write_response;
inline void written_bare(std::string& out, const service::Response& resp) {
  write_response(out, resp, -1);
}

}  // namespace dsmt::demo
"""

SELF_TEST_GOOD_REPLY = """\
// Look-alikes R15 must stay quiet on: the sanctioned encoder, the request
// codec, comments, member calls, and longer identifiers.
#pragma once

#include <string>

namespace dsmt::demo {

// response_to_json(resp) and write_response(out, resp, -1) live in
// src/service/; a reply is framed by net::response_frame only.
inline std::string sanctioned(const service::Response& resp) {
  return net::response_frame(resp);
}

inline std::string request_side(const service::Request& req) {
  return service::request_to_json(req).dump(-1);
}

inline std::string look_alikes(const Codec& codec, const Codec* other,
                               const service::Response& resp) {
  return codec.response_to_json(resp).dump(-1) +
         other->response_to_json(resp).dump(-1) +
         my_response_to_json(resp) + response_to_json_v2(resp);
}

inline void writer_look_alikes(Codec& codec, Codec* other, std::string& out,
                               const service::Response& resp) {
  codec.write_response(out, resp, -1);
  other->write_response(out, resp, -1);
  my_write_response(out, resp);
  write_response_v2(out, resp);
}

}  // namespace dsmt::demo
"""

SELF_TEST_BAD_DECODER = """\
// Second request decoders in the three shapes R16 must catch, for each of
// its two names: Json::parse outside src/report/, request_from_json
// outside the request codec.
#pragma once

#include <string>

namespace dsmt::demo {

inline service::Request qualified(const std::string& payload) {
  return service::request_from_json(dsmt::report::Json::parse(payload));
}

inline service::Request spaced(const std::string& payload) {
  return dsmt::service::request_from_json (report::Json :: parse (payload));
}

using report::Json;
using service::request_from_json;
inline service::Request bare(const std::string& payload) {
  return request_from_json(Json::parse(payload));
}

}  // namespace dsmt::demo
"""

SELF_TEST_GOOD_DECODER = """\
// Look-alikes R16 must stay quiet on: the sanctioned decoder, comments,
// member calls, and longer identifiers.
#pragma once

#include <string>

namespace dsmt::demo {

// request_from_json(Json::parse(payload)) is the tree oracle tests keep.
inline service::Request sanctioned(const std::string& payload) {
  return service::RequestDocument::parse(payload).decode();  // Json::parse(
}

inline service::Request look_alikes(const Codec& codec, const Codec* other,
                                    const std::string& payload) {
  codec.request_from_json(payload);
  other->request_from_json(payload);
  my_request_from_json(payload);
  request_from_json_v2(payload);
  MyJson::parse(payload);
  report::Json::parse_all(payload);
  return other->Json::parse(payload);
}

}  // namespace dsmt::demo
"""

SELF_TEST_WRAPPER_HOME = """\
// Minimal slice of core/thread_annotations.h: the one sanctioned home of
// the raw std lock types, which it wraps in annotated capabilities.
#pragma once

#include <condition_variable>
#include <mutex>

namespace dsmt {

class Mutex {
 private:
  std::mutex mu_;
};

class CondVar {
 private:
  std::condition_variable cv_;
};

}  // namespace dsmt
"""


def self_test() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        root = pathlib.Path(d)
        (root / "src" / "demo").mkdir(parents=True)
        (root / "src" / "service").mkdir(parents=True)
        bad = root / "src" / "demo" / "bad.h"
        bad.write_text(SELF_TEST_BAD_HEADER)
        good = root / "src" / "demo" / "good.h"
        good.write_text(SELF_TEST_GOOD_HEADER)
        bad_svc = root / "src" / "service" / "bad_service.h"
        bad_svc.write_text(SELF_TEST_BAD_SERVICE)
        good_svc = root / "src" / "service" / "good_service.h"
        good_svc.write_text(SELF_TEST_GOOD_SERVICE)
        (root / "src" / "parallel").mkdir(parents=True)
        (root / "src" / "core").mkdir(parents=True)
        bad_conc = root / "src" / "parallel" / "bad_conc.h"
        bad_conc.write_text(SELF_TEST_BAD_CONCURRENCY)
        good_conc = root / "src" / "service" / "good_conc.h"
        good_conc.write_text(SELF_TEST_GOOD_CONCURRENCY)
        wrapper = root / "src" / "core" / "thread_annotations.h"
        wrapper.write_text(SELF_TEST_WRAPPER_HOME)
        (root / "src" / "net").mkdir(parents=True)
        bad_sys = root / "src" / "demo" / "bad_io.h"
        bad_sys.write_text(SELF_TEST_BAD_SYSCALL)
        good_net = root / "src" / "net" / "good_io.h"
        good_net.write_text(SELF_TEST_GOOD_NET)
        bad_proc = root / "src" / "demo" / "bad_proc.h"
        bad_proc.write_text(SELF_TEST_BAD_PROCESS)
        good_proc = root / "src" / "demo" / "good_proc.h"
        good_proc.write_text(SELF_TEST_GOOD_PROCESS)
        bad_cache = root / "src" / "demo" / "bad_cache.h"
        bad_cache.write_text(SELF_TEST_BAD_CACHE)
        good_cache = root / "src" / "demo" / "good_cache.h"
        good_cache.write_text(SELF_TEST_GOOD_CACHE)

        errors: list[str] = []
        lint_file(bad, "demo/bad.h", errors)
        tags = sorted({re.search(r"\[([\w-]+)\]", e).group(1) for e in errors})
        expect = ["constants", "converged-check", "no-raw-thread", "no-stdio",
                  "pragma-once", "unit-tag", "wall-clock"]
        if tags != expect:
            print(f"self-test FAILED: bad.h raised {tags}, expected {expect}")
            for e in errors:
                print("  " + e)
            return 1

        errors = []
        lint_file(good, "demo/good.h", errors)
        if errors:
            print("self-test FAILED: good.h should be clean:")
            for e in errors:
                print("  " + e)
            return 1

        # R8 fires on every banned shape in a service file...
        errors = []
        lint_file(bad_svc, "service/bad_service.h", errors)
        svc = [e for e in errors if "[service-io]" in e]
        if len(svc) != 7:  # ofstream, fopen, FILE*, getline, deque/queue/list
            print(f"self-test FAILED: bad_service.h raised {len(svc)} "
                  f"service-io violations, expected 7:")
            for e in errors:
                print("  " + e)
            return 1

        # ... stays quiet on the sanctioned shapes ...
        errors = []
        lint_file(good_svc, "service/good_service.h", errors)
        if errors:
            print("self-test FAILED: good_service.h should be clean:")
            for e in errors:
                print("  " + e)
            return 1

        # ... and is scoped to src/service/: the same banned shapes outside
        # the fence raise no service-io violation.
        errors = []
        lint_file(bad_svc, "demo/bad_service.h", errors)
        if any("[service-io]" in e for e in errors):
            print("self-test FAILED: service-io fired outside src/service/")
            return 1

        # R9/R10 fire on every banned shape inside the concurrency fence...
        errors = []
        lint_file(bad_conc, "parallel/bad_conc.h", errors)
        r9 = [e for e in errors if "[lock-vocabulary]" in e]
        r10 = [e for e in errors if "[guarded-state]" in e]
        if len(r9) != 3 or len(r10) != 3:
            print(f"self-test FAILED: bad_conc.h raised {len(r9)} "
                  f"lock-vocabulary + {len(r10)} guarded-state violations, "
                  f"expected 3 + 3:")
            for e in errors:
                print("  " + e)
            return 1

        # ... stay quiet on the annotated shapes (guard on line, guard on a
        # continuation line, atomic, R10-ok comment, constexpr) ...
        errors = []
        lint_file(good_conc, "service/good_conc.h", errors)
        if errors:
            print("self-test FAILED: good_conc.h should be clean:")
            for e in errors:
                print("  " + e)
            return 1

        # ... are scoped to the fence: the same shapes in an unfenced
        # subsystem raise nothing ...
        errors = []
        lint_file(bad_conc, "demo/bad_conc.h", errors)
        if any("[lock-vocabulary]" in e or "[guarded-state]" in e
               for e in errors):
            print("self-test FAILED: R9/R10 fired outside the fence")
            return 1

        # ... and exempt core/thread_annotations.h, the wrapper home of the
        # raw types.
        errors = []
        lint_file(wrapper, "core/thread_annotations.h", errors)
        if errors:
            print("self-test FAILED: thread_annotations.h home should be "
                  "exempt:")
            for e in errors:
                print("  " + e)
            return 1

        # R6 fences every CPU placement call out of the library ...
        bad_place = root / "src" / "demo" / "bad_place.h"
        bad_place.write_text(SELF_TEST_BAD_PLACEMENT)
        good_place = root / "src" / "demo" / "good_place.h"
        good_place.write_text(SELF_TEST_GOOD_PLACEMENT)
        errors = []
        lint_file(bad_place, "demo/bad_place.h", errors)
        place = [e for e in errors if "[no-raw-thread] CPU placement" in e]
        if len(place) != 5 or len(errors) != 5:
            print(f"self-test FAILED: bad_place.h raised {len(place)} CPU "
                  f"placement violations, expected 5:")
            for e in errors:
                print("  " + e)
            return 1

        # ... allows them under src/parallel/, their home ...
        errors = []
        lint_file(bad_place, "parallel/placement.h", errors)
        if any("[no-raw-thread]" in e for e in errors):
            print("self-test FAILED: CPU placement fired inside "
                  "src/parallel/")
            return 1

        # ... and stays quiet on comments, member calls and longer names.
        errors = []
        lint_file(good_place, "demo/good_place.h", errors)
        if errors:
            print("self-test FAILED: good_place.h should be clean:")
            for e in errors:
                print("  " + e)
            return 1

        # R11 fires on every raw syscall shape outside src/net/ ...
        errors = []
        lint_file(bad_sys, "demo/bad_io.h", errors)
        sys_errs = [e for e in errors if "[net-syscalls]" in e]
        if len(sys_errs) != 3:  # ::read, send, poll
            print(f"self-test FAILED: bad_io.h outside net/ raised "
                  f"{len(sys_errs)} net-syscalls violations, expected 3:")
            for e in errors:
                print("  " + e)
            return 1

        # ... demands visible EINTR handling at the same sites inside
        # src/net/ ...
        errors = []
        lint_file(bad_sys, "net/bad_io.h", errors)
        sys_errs = [e for e in errors if "[net-syscalls]" in e]
        if len(sys_errs) != 3 or any("EINTR" not in e for e in sys_errs):
            print(f"self-test FAILED: bad_io.h inside net/ raised "
                  f"{len(sys_errs)} EINTR-discipline violations, expected 3:")
            for e in errors:
                print("  " + e)
            return 1

        # ... and stays quiet on the sanctioned net/ shapes: EINTR-handled
        # syscalls, member calls, nullary accessor declarations, suffixed
        # wrapper names.
        errors = []
        lint_file(good_net, "net/good_io.h", errors)
        if errors:
            print("self-test FAILED: good_io.h should be clean:")
            for e in errors:
                print("  " + e)
            return 1

        # R13 fires on every raw process-syscall shape outside
        # src/supervise/ ...
        errors = []
        lint_file(bad_proc, "demo/bad_proc.h", errors)
        proc = [e for e in errors if "[process-syscalls]" in e]
        if len(proc) != 4:  # ::fork, waitpid, kill, setrlimit
            print(f"self-test FAILED: bad_proc.h raised {len(proc)} "
                  f"process-syscalls violations, expected 4:")
            for e in errors:
                print("  " + e)
            return 1

        # ... stays quiet on the look-alike identifiers ...
        errors = []
        lint_file(good_proc, "demo/good_proc.h", errors)
        if any("[process-syscalls]" in e for e in errors):
            print("self-test FAILED: good_proc.h should be R13-clean:")
            for e in errors:
                print("  " + e)
            return 1

        # ... and exempts src/supervise/, the fence's home: the same shapes
        # there raise nothing.
        errors = []
        lint_file(bad_proc, "supervise/bad_proc.h", errors)
        if any("[process-syscalls]" in e for e in errors):
            print("self-test FAILED: R13 fired inside src/supervise/")
            return 1

        # R14 fires on every FNV literal (decimal, hex, the frozen canonical
        # basis) and every segment primitive outside src/cache/ ...
        errors = []
        lint_file(bad_cache, "demo/bad_cache.h", errors)
        cache_errs = [e for e in errors if "[cache-primitives]" in e]
        if len(cache_errs) != 7:  # 4 FNV literals + AppendLog/truncate/magic
            print(f"self-test FAILED: bad_cache.h raised {len(cache_errs)} "
                  f"cache-primitives violations, expected 7:")
            for e in errors:
                print("  " + e)
            return 1

        # ... stays quiet on the sanctioned call and the look-alikes ...
        errors = []
        lint_file(good_cache, "demo/good_cache.h", errors)
        if any("[cache-primitives]" in e for e in errors):
            print("self-test FAILED: good_cache.h should be R14-clean:")
            for e in errors:
                print("  " + e)
            return 1

        # ... exempts src/cache/ itself (both halves of the fence) ...
        errors = []
        lint_file(bad_cache, "cache/fnv.h", errors)
        if any("[cache-primitives]" in e for e in errors):
            print("self-test FAILED: R14 fired inside src/cache/")
            return 1

        # ... fences both halves in core/, including the path of the
        # former FNV exemption (core/checkpoint.cpp) ...
        errors = []
        lint_file(bad_cache, "core/checkpoint.cpp", errors)
        cache_errs = [e for e in errors if "[cache-primitives]" in e]
        if len(cache_errs) != 7 or \
                sum("FNV" in e for e in cache_errs) != 4:
            print(f"self-test FAILED: checkpoint.cpp raised "
                  f"{len(cache_errs)} cache-primitives violations, expected "
                  f"4 FNV-constant and 3 segment-primitive ones:")
            for e in errors:
                print("  " + e)
            return 1

        # ... and exempts core/atomic_file, the segment primitives'
        # implementation home, while still fencing the FNV constants there.
        errors = []
        lint_file(bad_cache, "core/atomic_file.cpp", errors)
        cache_errs = [e for e in errors if "[cache-primitives]" in e]
        if len(cache_errs) != 4 or any("FNV" not in e for e in cache_errs):
            print(f"self-test FAILED: atomic_file.cpp raised "
                  f"{len(cache_errs)} cache-primitives violations, expected "
                  f"4 FNV-constant ones:")
            for e in errors:
                print("  " + e)
            return 1

        # R15 fires on every hand-built reply writer outside the writer's
        # homes: both names in net/server.cpp ...
        bad_reply = root / "src" / "demo" / "bad_reply.h"
        bad_reply.write_text(SELF_TEST_BAD_REPLY)
        good_reply = root / "src" / "demo" / "good_reply.h"
        good_reply.write_text(SELF_TEST_GOOD_REPLY)

        def reply_errors(rel: str) -> list[str]:
            errors = []
            lint_file(bad_reply, rel, errors)
            return [e for e in errors if "[reply-writer]" in e]

        # (path, expected response_to_json hits, expected write_response
        # hits): three shapes each (qualified, spaced, bare).
        for rel, oracle, writer in (("net/server.cpp", 3, 3),
                                    ("net/wire.h", 3, 3),
                                    ("net/wire.cpp", 3, 0),
                                    ("service/request.cpp", 0, 0),
                                    ("service/server.cpp", 0, 0)):
            errs = reply_errors(rel)
            got_oracle = len([e for e in errs if "response_to_json" in e])
            got_writer = len([e for e in errs if "write_response" in e])
            if (got_oracle, got_writer) != (oracle, writer):
                print(f"self-test FAILED: bad_reply.h as {rel} raised "
                      f"{got_oracle} response_to_json and {got_writer} "
                      f"write_response reply-writer violations, expected "
                      f"{oracle} and {writer}:")
                for e in errs:
                    print("  " + e)
                return 1

        # ... and stays quiet on the sanctioned encoder and the look-alikes.
        for rel in ("supervise/good_reply.h", "net/server.cpp"):
            errors = []
            lint_file(good_reply, rel, errors)
            if any("[reply-writer]" in e for e in errors):
                print(f"self-test FAILED: good_reply.h as {rel} should be "
                      f"R15-clean:")
                for e in errors:
                    print("  " + e)
                return 1

        # R16 fires on every second decoder outside the decoder's homes:
        # both names in net/ and service/server.cpp, and in examples/ ...
        bad_decoder = root / "src" / "demo" / "bad_decoder.h"
        bad_decoder.write_text(SELF_TEST_BAD_DECODER)
        good_decoder = root / "src" / "demo" / "good_decoder.h"
        good_decoder.write_text(SELF_TEST_GOOD_DECODER)

        def decoder_errors(path: pathlib.Path, rel: str) -> list[str]:
            errors = []
            if rel.startswith("examples/"):
                lint_decoder_calls(path.read_text().split("\n"), rel, errors)
            else:
                lint_file(path, rel, errors)
            return [e for e in errors if "[request-decoder]" in e]

        # (path, expected Json::parse hits, expected request_from_json
        # hits): three shapes each (qualified, spaced, bare).
        for rel, parse, decoder in (("net/server.cpp", 3, 3),
                                    ("service/server.cpp", 3, 3),
                                    ("examples/dsmt_serve.cpp", 3, 3),
                                    ("report/json.cpp", 0, 3),
                                    ("service/request.cpp", 3, 0),
                                    ("service/request.h", 3, 0)):
            errs = decoder_errors(bad_decoder, rel)
            got_parse = len([e for e in errs if "Json::parse" in e])
            got_decoder = len([e for e in errs if "request_from_json" in e])
            if (got_parse, got_decoder) != (parse, decoder):
                print(f"self-test FAILED: bad_decoder.h as {rel} raised "
                      f"{got_parse} Json::parse and {got_decoder} "
                      f"request_from_json request-decoder violations, "
                      f"expected {parse} and {decoder}:")
                for e in errs:
                    print("  " + e)
                return 1

        # ... and stays quiet on the sanctioned decoder and the look-alikes.
        for rel in ("net/server.cpp", "service/server.cpp",
                    "examples/dsmt_serve.cpp"):
            errs = decoder_errors(good_decoder, rel)
            if errs:
                print(f"self-test FAILED: good_decoder.h as {rel} should be "
                      f"R16-clean:")
                for e in errs:
                    print("  " + e)
                return 1

    print("dsmt_lint: self-test passed (rules R1-R11, R13-R16)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".",
                    help="repository root (contains src/)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in rule self-test and exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    return run(pathlib.Path(args.root).resolve())


if __name__ == "__main__":
    sys.exit(main())
