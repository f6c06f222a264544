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
#
# Usage: scripts/cpu_profile.sh <workload> [seconds] [from_s] [to_s] [seed]
#   seconds        run length (default 20)
#   from_s, to_s   only samples taken this long after the start count
#                  (default: the whole run, set-up included)
#   seed           workload seed (default 1)
# Needs gcc, nm and python3. Not part of scripts/verify.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/cpu_profile.sh <workload> [seconds] [from_s] [to_s] [seed]}"
seconds="${2:-20}"
from_s="${3:-0}"
to_s="${4:-1000000}"
seed="${5:-1}"

target="${CARGO_TARGET_DIR:-$PWD/perf/target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
bin="$target/release/perf"

mkdir -p "$target/cpu_profile"
shim="$target/cpu_profile/shim.so"
samples="$target/cpu_profile/$workload.samples"
cat > "$target/cpu_profile/shim.c" <<'C'
#define _GNU_SOURCE
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
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
gcc -O2 -shared -fPIC -o "$shim" "$target/cpu_profile/shim.c"

CPU_PROFILE_SAMPLES="$samples" LD_PRELOAD="$shim" \
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1

python3 - "$samples" "$from_s" "$to_s" <<'PY'
import bisect, collections, os, re, subprocess, sys

path, from_s, to_s = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
maps, samples, in_samples = [], [], False
for line in open(path, errors="replace"):
    if line.startswith("--samples--"):
        in_samples = True
    elif in_samples:
        name, at, frames = line.rstrip("\n").split("\t")
        samples.append((name, int(at, 16), [int(f, 16) for f in frames.split()]))
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
    one (libc)."""
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

total = len(window)
print(f"\n{total} samples at 250 Hz of CPU time, {from_s:g}s..{min(to_s, (samples[-1][1] - t0) / 1e9):.1f}s")
def show(title, counter, n):
    print(f"\n{title}")
    for key, hits in counter.most_common(n):
        print(f"  {100 * hits / total:5.1f}%  {key}")
show("by thread", threads, 12)
show("self, by function", self_, 25)
show("inclusive, by function", incl, 40)
PY
