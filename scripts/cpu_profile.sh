#!/usr/bin/env bash
# Where a benchmark workload's CPU goes: a sampling profile of one `perf`
# run, by thread and by function (self and inclusive shares).
#
# An LD_PRELOAD shim (built here with the box's gcc, nothing downloaded)
# arms `setitimer(ITIMER_PROF)` at 250 Hz and, on every SIGPROF, writes the
# sampled thread's name, a timestamp and its `backtrace()` to a file. The
# fold resolves every frame through the `/proc/self/maps` the shim dumped
# at start: frames in the binary against `nm`, frames in shared objects
# against `nm -D` of that object — so time spent in libc (futex waits and
# wakes show up as `libc:syscall`) is named, not printed as `??`.
# libc's string functions are IFUNCs: `memcpy` runs a variant picked at
# load time that the dynamic table does not list (glibc 2.36 on x86-64
# puts it past the last exported symbol, so it used to print as
# `libc:<after __nss_database_lookup>`). The shim also writes where
# `dlsym` resolves `memcpy`, `memmove`, `memset`, `memcmp` and `strlen`,
# and the fold adds those addresses to libc's table under the name asked
# for (the first one, where two share an implementation) — a pc up to
# 4 KiB past one, and before the next known symbol, is that function.
#
# Usage: scripts/cpu_profile.sh <workload> [seconds] [from_s] [to_s] [seed] [regex]
#   seconds        run length (default 20)
#   from_s, to_s   only samples taken this long after the start count
#                  (default: the whole run, set-up included)
#   seed           workload seed (default 1)
#   regex          also name who pays for the frames it matches: for every
#                  sample whose innermost frame matches (e.g.
#                  'malloc|reserve_rehash|syscall'), the nearest three
#                  frames of the program's own code above it — shared
#                  objects, std, core, alloc, hashbrown and ray_common::sync
#                  skipped
# Needs gcc, nm and python3. Not part of scripts/verify.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/cpu_profile.sh <workload> [seconds] [from_s] [to_s] [seed] [regex]}"
seconds="${2:-20}"
from_s="${3:-0}"
to_s="${4:-1000000}"
seed="${5:-1}"
payer_regex="${6:-}"

target="${CARGO_TARGET_DIR:-$PWD/perf/target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
bin="$target/release/perf"

mkdir -p "$target/cpu_profile"
shim="$target/cpu_profile/shim.so"
samples="$target/cpu_profile/$workload.samples"
cat > "$target/cpu_profile/shim.c" <<'C'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#define DEPTH 48
static int out = -1;

static char *hex(char *p, uint64_t v) {
    char digits[16];
    int n = 0;
    do { digits[n++] = "0123456789abcdef"[v & 15]; v >>= 4; } while (v);
    while (n) *p++ = digits[--n];
    return p;
}

/* One line per sample: `<thread name>\t<ns since boot>\t<pc> <pc> ...`,
 * innermost frame first. Only async-signal-safe calls (backtrace() was
 * warmed up in the constructor, so it no longer allocates). */
static void on_prof(int sig) {
    (void)sig;
    void *frames[DEPTH];
    char line[64 + 17 * DEPTH], name[16] = "?";
    struct timespec now;
    int n = backtrace(frames, DEPTH);
    prctl(PR_GET_NAME, name);
    clock_gettime(CLOCK_MONOTONIC, &now);
    char *p = line;
    size_t len = strnlen(name, sizeof name);
    memcpy(p, name, len);
    p += len;
    *p++ = '\t';
    p = hex(p, (uint64_t)now.tv_sec * 1000000000ull + (uint64_t)now.tv_nsec);
    *p++ = '\t';
    for (int i = 0; i < n; i++) {
        p = hex(p, (uint64_t)(uintptr_t)frames[i]);
        *p++ = ' ';
    }
    *p++ = '\n';
    if (write(out, line, (size_t)(p - line)) < 0) { /* a lost sample */ }
}

__attribute__((constructor)) static void start(void) {
    const char *path = getenv("CPU_PROFILE_SAMPLES");
    if (!path) return;
    /* Children (the suite mode forks) would clobber the file. */
    unsetenv("LD_PRELOAD");
    out = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0) return;
    char buf[4096];
    int maps = open("/proc/self/maps", O_RDONLY);
    ssize_t got;
    while (maps >= 0 && (got = read(maps, buf, sizeof buf)) > 0)
        if (write(out, buf, (size_t)got) < 0) break;
    if (maps >= 0) close(maps);
    /* Where the string functions resolve at run time, one line each:
     * `resolved\t<name>\t<address>`. */
    static const char *const resolved[] = {"memcpy", "memmove", "memset", "memcmp", "strlen"};
    for (size_t i = 0; i < sizeof resolved / sizeof *resolved; i++) {
        int len = snprintf(buf, sizeof buf, "resolved\t%s\t%lx\n", resolved[i],
                           (unsigned long)(uintptr_t)dlsym(RTLD_DEFAULT, resolved[i]));
        if (len > 0 && write(out, buf, (size_t)len) < 0) return;
    }
    if (write(out, "--samples--\n", 12) < 0) return;
    void *warm[4];
    backtrace(warm, 4);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 4000}, {0, 4000}}; /* 250 Hz of CPU time */
    setitimer(ITIMER_PROF, &every, NULL);
}
C
gcc -O2 -shared -fPIC -o "$shim" "$target/cpu_profile/shim.c" -ldl

CPU_PROFILE_SAMPLES="$samples" LD_PRELOAD="$shim" \
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1

python3 - "$samples" "$from_s" "$to_s" "$payer_regex" <<'PY'
import bisect, collections, os, re, subprocess, sys

path, from_s, to_s, payer_regex = sys.argv[1], float(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
maps, samples, in_samples, resolved = [], [], False, {}
for line in open(path, errors="replace"):
    if line.startswith("--samples--"):
        in_samples = True
    elif in_samples:
        name, at, frames = line.rstrip("\n").split("\t")
        samples.append((name, int(at, 16), [int(f, 16) for f in frames.split()]))
    elif line.startswith("resolved\t"):
        _, fn, addr = line.split()
        resolved.setdefault(int(addr, 16), fn)
    else:
        f = line.split()
        if len(f) >= 6 and f[5].startswith("/"):
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5]))
maps.sort()
starts = [m[0] for m in maps]
# An object's load base: where its file offset 0 is mapped.
base = {}
for lo, hi, off, obj in maps:
    if off == 0:
        base.setdefault(obj, lo)

tables = {}
def table(obj):
    """`obj`'s defined function symbols as sorted (start, end, name): the
    static table when it has one (the benchmark binary), else the dynamic
    one (libc), plus the string functions the shim resolved inside it."""
    if obj not in tables:
        syms = []
        for flags in (["-CS", "--defined-only"], ["-CSD", "--defined-only"]):
            run = subprocess.run(["nm", *flags, obj], capture_output=True, text=True)
            for row in run.stdout.splitlines():
                m = re.match(r"([0-9a-f]+) (?:([0-9a-f]+) )?([TtWwiI]) (.*)", row)
                if m:
                    start = int(m[1], 16)
                    syms.append((start, start + int(m[2] or "0", 16), m[4]))
            if syms:
                break
        for addr, fn in resolved.items():
            i = bisect.bisect_right(starts, addr) - 1
            if i >= 0 and addr < maps[i][1] and maps[i][3] == obj:
                at = addr - base.get(obj, maps[i][0])
                syms.append((at, at + 4096, fn))
        tables[obj] = sorted(syms)
    return tables[obj]

# The benchmark binary's own functions are printed bare, a shared object's
# as `<object>:<function>` (`libc:syscall`). A pc past the end of the
# nearest symbol is in a function the table does not list (libc's static
# ones are not in its dynamic table): `libc:<after ...>`, never a wrong name.
main_obj = next((obj for _, _, _, obj in maps if os.path.basename(obj) == "perf"), None)

def resolve(pc):
    i = bisect.bisect_right(starts, pc) - 1
    if i < 0 or pc >= maps[i][1]:
        return "??"
    obj = maps[i][3]
    syms = table(obj)
    at = pc - base.get(obj, maps[i][0])
    j = bisect.bisect_right(syms, (at, float("inf"), "")) - 1
    name = "??"
    if j >= 0:
        start, end, name = syms[j]
        name = re.sub(r"::h[0-9a-f]{16}$|@.*$", "", name)
        if at >= end > start:
            name = f"<after {name}>"
    return name if obj == main_obj else f"{re.split(r'[-.]', os.path.basename(obj))[0]}:{name}"

if not samples:
    sys.exit("cpu_profile: no samples (did the run use any CPU?)")
t0 = samples[0][1]
window = [s for s in samples if from_s <= (s[1] - t0) / 1e9 <= to_s]
threads, self_, incl = collections.Counter(), collections.Counter(), collections.Counter()
# Frames that name no payer: shared objects (`libc:malloc`), unresolved pcs,
# and the library layers a cost passes through on its way up.
plumbing = re.compile(r"^(\?\?|[\w-]+:[^:]|<?(std|core|alloc|hashbrown|ray_common::sync)::)")
payer = re.compile(payer_regex) if payer_regex else None
payers = collections.defaultdict(collections.Counter)
for name, _, frames in window:
    # frames[0] is the handler and frames[1] the kernel's signal trampoline;
    # every frame above the interrupted one is a return address.
    stack = [resolve(pc if i == 0 else pc - 1) for i, pc in enumerate(frames[2:])]
    if not stack:
        continue
    threads[re.sub(r"[-0-9]+$", "-*", name)] += 1
    self_[stack[0]] += 1
    for fn in set(stack):
        incl[fn] += 1
    if payer and payer.search(stack[0]):
        callers = [fn for fn in stack[1:] if not plumbing.match(fn)][:3]
        payers[stack[0]][" < ".join(callers) or "??"] += 1

total = len(window)
print(f"\n{total} samples at 250 Hz of CPU time, {from_s:g}s..{min(to_s, (samples[-1][1] - t0) / 1e9):.1f}s")
def show(title, counter, n):
    print(f"\n{title}")
    for key, hits in counter.most_common(n):
        print(f"  {100 * hits / total:5.1f}%  {key}")
show("by thread", threads, 12)
show("self, by function", self_, 25)
show("inclusive, by function", incl, 40)
for fn, callers in sorted(payers.items(), key=lambda kv: -sum(kv[1].values())):
    share = 100 * sum(callers.values()) / total
    print(f"\n{share:5.1f}%  {fn}, paid for by (nearest three frames of the program)")
    for chain, hits in callers.most_common(8):
        print(f"  {100 * hits / total:5.1f}%  {chain}")
PY
