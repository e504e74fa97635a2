#!/usr/bin/env bash
# A sampling profile of one run of a built binary, without `perf`
# (docs/PERFORMANCE.md, "Measuring a change").
#
#   scripts/sample-profile.sh <labbench-bin> <args…>
#   SAMPLE_PROFILE_TOP=40 scripts/sample-profile.sh ./labbench \
#       --workload gossip_state --seed 12 --seconds 6 --trace 0
#
# An LD_PRELOAD shim interrupts the process every millisecond of CPU time
# (`setitimer(ITIMER_PROF)`) and keeps the `backtrace()` of each sample in
# a static buffer; at exit it writes the samples and /proc/self/maps to a
# file, and a symboliser over `addr2line -f -C -i` prints, per function,
# the share of samples it was the innermost frame of (self) and the share
# it appeared anywhere in (inclusive, inlined frames included). The binary
# needs line tables (the release profile here has them) and must not be
# stripped. The program's own output goes to stderr, the tables to stdout.
#
# A sample taken in a shared library is charged to a frame named after
# the library function the program called into (as `dladdr` names it at
# exit) and the function that called it. A third table says who the
# allocator works for: every sample taken under `malloc`, `calloc`,
# `realloc` or `free` is charged to its first caller outside the `alloc`,
# `raw_vec` and collections frames (and allocator shims and drop glue),
# so a `Vec::push` that grows shows up as the function that pushed.
#
# Exit status 3 with a notice when `cc`, `addr2line` or `python3` is
# missing; otherwise the profiled program's.
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,7p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }
for tool in cc addr2line python3; do
    command -v "$tool" > /dev/null || { echo "sample-profile: no \`$tool\` on this machine, skipping" >&2; exit 3; }
done
bin=$1
shift
[ -x "$bin" ] || { echo "sample-profile: $bin is not an executable" >&2; exit 2; }

work=$(mktemp -d "${TMPDIR:-/tmp}/sample-profile.XXXXXX")
trap 'rm -rf "$work"' EXIT

cat > "$work/shim.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/auxv.h>
#include <sys/time.h>

#define DEPTH 48
#define SAMPLES 65536
/* One row per sample: the frame count, then the frames, innermost first. */
static void *rows[SAMPLES][DEPTH + 1];
static volatile int taken;

static void on_prof(int sig) {
    (void)sig;
    if (taken >= SAMPLES) return;
    void **row = rows[taken];
    row[0] = (void *)(long)backtrace(row + 1, DEPTH);
    taken++;
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLE_PROFILE_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    if (!out) return;
    Dl_info info;
    void *program = dladdr((void *)getauxval(AT_ENTRY), &info) ? info.dli_fbase : NULL;
    for (int i = 0; i < taken; i++) {
        /* Frames 0 and 1 are the handler and the signal trampoline. The
           row starts with the shared-library function the program called
           into (malloc, memcpy, ...), or "-" when the sample is in it. */
        const char *entry = "-";
        for (long f = 3; f <= (long)rows[i][0] && dladdr(rows[i][f], &info) && info.dli_fbase != program; f++)
            entry = info.dli_sname ? info.dli_sname : "??";
        fprintf(out, "%s ", entry);
        for (long f = 3; f <= (long)rows[i][0]; f++) fprintf(out, "%p ", rows[i][f]);
        fputc('\n', out);
    }
    fputs("maps\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    for (int c; maps && (c = fgetc(maps)) != EOF;) fputc(c, out);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside the handler */
    struct sigaction sa = {0};
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}
EOF
cc -O1 -shared -fPIC -o "$work/shim.so" "$work/shim.c"

status=0
SAMPLE_PROFILE_OUT="$work/samples" LD_PRELOAD="$work/shim.so" "$bin" "$@" >&2 || status=$?
[ -s "$work/samples" ] || { echo "sample-profile: the run left no samples" >&2; exit 1; }

python3 - "$bin" "$work/samples" "${SAMPLE_PROFILE_TOP:-30}" <<'EOF'
import collections, os, re, subprocess, sys

binary, path, top = os.path.realpath(sys.argv[1]), sys.argv[2], int(sys.argv[3])
lines = open(path).read().split("\n")
cut = lines.index("maps")
# Per sample: the library function it was taken under ("-" for none),
# and its frames.
samples = [(l.split()[0], [int(a, 16) for a in l.split()[1:]]) for l in lines[:cut] if l.strip()]
# Where the binary's file offsets were mapped: address -> link-time address.
spans = []
for m in lines[cut + 1:]:
    f = m.split()
    if len(f) >= 6 and os.path.realpath(f[5]) == binary:
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        spans.append((lo, hi, int(f[2], 16)))
base = min((lo - off for lo, _, off in spans), default=0)

def link_address(a):
    return a - base if any(lo <= a < hi for lo, hi, _ in spans) else None

# The innermost frame is the interrupted instruction itself; every other
# one is a return address, which points after its call: look one byte back.
def lookups(stack):
    return [a - (1 if depth else 0) for depth, a in enumerate(map(link_address, stack)) if a is not None]

wanted = sorted({a for _, s in samples for a in lookups(s)})
out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", binary], input="\n".join(map(hex, wanted)),
                     capture_output=True, text=True, check=True).stdout.split("\n")
# Per address: its line, then (function, file:line) pairs, innermost inlined frame first.
names, current, function = {}, None, None
for l in out:
    if l.startswith("0x"):
        current, function = names.setdefault(int(l, 16), []), None
    elif current is not None and l:
        if function is None:
            function = l
        else:
            current.append((function, l))
            function = None

def frames(entry, stack):
    """(function, file:line) per frame, innermost first."""
    inside = [f for a in lookups(stack) for f in names.get(a, [("??", "??")])]
    # A sample taken in a shared library (the allocator, memcpy) is
    # charged to a frame of its own, named after the library function
    # and whoever called it.
    if link_address(stack[0]) is None:
        yield (f"[{entry} outside the binary, called by {inside[0][0] if inside else '??'}]", "")
    yield from inside

# An allocator sample is one taken under the C allocator's entry points.
# The frames that only pass an allocation on: the standard library's
# alloc crate (raw_vec, the collections), its allocator shims and hash
# tables, drop glue and any `GlobalAlloc` (an inlined `GlobalAlloc`
# method is named by its bare method name).
allocator = {f"{p}{f}" for p in ("", "__libc_") for f in ("malloc", "calloc", "realloc", "free", "memalign")} | {"posix_memalign", "aligned_alloc"}
passes_on_name = re.compile(r"^<?(alloc::|std::alloc|core::alloc|__rust_|__rdl_|__rg_)|^(alloc|alloc_zeroed|realloc|dealloc)$|GlobalAlloc|raw_vec|collections")
passes_on_file = re.compile(r"/library/(alloc/|core/src/alloc/|core/src/ptr/|std/src/alloc|std/src/sys/alloc|std/src/collections/)|/hashbrown")

self_n, incl_n, alloc_n = collections.Counter(), collections.Counter(), collections.Counter()
for entry, s in samples:
    pairs = list(frames(entry, s))
    fs = [name for name, _ in pairs]
    if fs:
        self_n[fs[0]] += 1
        incl_n.update(set(fs))
        if entry in allocator:
            owners = (n for n, f in pairs[1:] if not passes_on_name.search(n) and not passes_on_file.search(f))
            alloc_n[next(owners, "??")] += 1
total = len(samples)
print(f"{total} samples at 1 ms of CPU time each")
spine = {n for n, c in incl_n.items() if c >= 0.9 * total}
for title, order in (("self", self_n), ("inclusive", incl_n)):
    print(f"\ntop {top} by {title} share (self % / inclusive % / function; main's own callers and callees in 90 % of samples left out)")
    ranked = sorted(order.items(), key=lambda kv: (-kv[1], kv[0]))
    for name, _ in [kv for kv in ranked if kv[0] not in spine][:top]:
        print(f"{100 * self_n[name] / total:6.1f} {100 * incl_n[name] / total:6.1f}  {name}")
spent = sum(alloc_n.values())
print(f"\nallocator samples: {spent} ({100 * spent / total:.1f} %); top {top} callers outside alloc, raw_vec and collections (% of all samples / % of allocator samples / caller)")
for name, n in sorted(alloc_n.items(), key=lambda kv: (-kv[1], kv[0]))[:top]:
    print(f"{100 * n / total:6.1f} {100 * n / max(spent, 1):6.1f}  {name}")
EOF
exit $status
